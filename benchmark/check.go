package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"s3"
	"s3/internal/core"
	"s3/internal/graph"
	"s3/internal/score"
)

// row is one answer document as every deployment reports it.
type row struct {
	URI      string  `json:"uri"`
	Document string  `json:"document"`
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
}

// answer is one search answer in deployment-neutral form. Cache-state
// metadata (cached, warm) is not part of it: it may differ between
// identical answers.
type answer struct {
	Rows       []row `json:"results"`
	Exact      bool  `json:"exact"`
	Iterations int   `json:"iterations"`
}

func fromPublic(rs []s3.Result, info s3.SearchInfo) answer {
	a := answer{Rows: make([]row, len(rs)), Exact: info.Exact, Iterations: info.Iterations}
	for i, r := range rs {
		a.Rows[i] = row{URI: r.URI, Document: r.Document, Lower: r.Lower, Upper: r.Upper}
	}
	return a
}

// key is the answer's byte-identity digest: every field, floats by
// their bits.
func (a answer) key() string {
	var b strings.Builder
	b.WriteString(strconv.FormatBool(a.Exact))
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(a.Iterations))
	for _, r := range a.Rows {
		b.WriteByte('\x00')
		b.WriteString(r.URI)
		b.WriteByte('\x00')
		b.WriteString(r.Document)
		b.WriteByte('\x00')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.Lower), 16))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.Upper), 16))
	}
	return b.String()
}

// checkProps checks what every exact top-k answer satisfies: at most k
// distinct results, each with Lower ≤ Upper, listed by non-increasing
// upper bound (the engine's selection order), and the Exact flag set.
func checkProps(a answer, k int) error {
	if !a.Exact {
		return fmt.Errorf("answer not exact")
	}
	if len(a.Rows) > k {
		return fmt.Errorf("%d results for k=%d", len(a.Rows), k)
	}
	seen := make(map[string]bool, len(a.Rows))
	for i, r := range a.Rows {
		if seen[r.URI] {
			return fmt.Errorf("result %s listed twice", r.URI)
		}
		seen[r.URI] = true
		if !(r.Lower <= r.Upper) {
			return fmt.Errorf("result %s: lower %v > upper %v", r.URI, r.Lower, r.Upper)
		}
		if i > 0 && r.Upper > a.Rows[i-1].Upper {
			return fmt.Errorf("result %d (%s) has a larger upper bound than result %d", i, r.URI, i-1)
		}
	}
	return nil
}

// Tolerances of the oracle comparison. Engine.Exhaustive computes
// proximity to 1e-14, so its scores carry only float rounding; the
// score sequence is compared with the same tolerances as the engine's own
// oracle test (ties may swap equal-scoring documents).
const (
	intervalTol = 1e-9
	sequenceTol = 1e-6
	vanishing   = 1e-9
)

// oracle scores answers against Engine.Exhaustive, the brute-force exact
// top-k that shares none of S3k's bounds or stop logic.
type oracle struct {
	in  *graph.Instance
	eng *core.Engine
}

// check verifies a deployment's answer to q: the exact score of every
// reported document lies in its [Lower, Upper] interval, and the
// reported documents' exact scores match the oracle's top-k sequence.
func (o oracle) check(q query, a answer) error {
	params := score.DefaultParams()
	want, err := o.eng.Exhaustive(q.nid, q.keywords, q.k, params)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	exact := make(map[string]float64, len(want))
	for _, r := range want {
		exact[r.URI] = r.Lower
	}
	// A document outside the oracle's top-k (a tie swap) is scored
	// exactly on demand.
	var sc *score.Scorer
	var prox []float64
	got := make([]float64, len(a.Rows))
	for i, r := range a.Rows {
		s, ok := exact[r.URI]
		if !ok {
			d, known := o.in.NIDOf(r.URI)
			if !known {
				return fmt.Errorf("unknown result %s", r.URI)
			}
			if sc == nil {
				groups, _, err := o.eng.KeywordGroups(q.keywords)
				if err != nil {
					return fmt.Errorf("oracle: %w", err)
				}
				if sc, err = score.NewScorer(o.in, o.eng.Index(), params, groups); err != nil {
					return fmt.Errorf("oracle: %w", err)
				}
				prox = score.ExactProximity(o.in, params, q.nid, 1e-14)
			}
			s = sc.Exact(d, prox)
		}
		if s < r.Lower-intervalTol || s > r.Upper+intervalTol {
			return fmt.Errorf("exact score %v of %s outside [%v, %v]", s, r.URI, r.Lower, r.Upper)
		}
		got[i] = s
	}
	wantScores := make([]float64, len(want))
	for i, r := range want {
		wantScores[i] = r.Lower
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(got)))
	sort.Sort(sort.Reverse(sort.Float64Slice(wantScores)))
	n := min(len(got), len(wantScores))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-wantScores[i]) > sequenceTol {
			return fmt.Errorf("score %d is %v, oracle has %v", i, got[i], wantScores[i])
		}
	}
	for _, s := range append(got[n:], wantScores[n:]...) {
		if s > vanishing {
			return fmt.Errorf("answers differ by a document of score %v", s)
		}
	}
	return nil
}

// reference answers q on the single in-process engine, mapped the way
// the public API maps results (containing document, exactness).
func reference(in *graph.Instance, eng *core.Engine, q query) (answer, core.Stats, error) {
	opts := core.DefaultOptions()
	opts.K = q.k
	rs, st, err := eng.Search(q.nid, q.keywords, opts)
	if err != nil {
		return answer{}, st, err
	}
	a := answer{Rows: make([]row, len(rs)), Iterations: st.Iterations}
	switch st.Reason {
	case core.StopThreshold, core.StopExhausted, core.StopNoMatch:
		a.Exact = true
	}
	for i, r := range rs {
		doc := r.URI
		if root := in.DocRootOf(r.Doc); root != graph.NoNID {
			doc = in.URIOf(root)
		}
		a.Rows[i] = row{URI: r.URI, Document: doc, Lower: r.Lower, Upper: r.Upper}
	}
	return a, st, nil
}
