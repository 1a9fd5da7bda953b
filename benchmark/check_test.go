package main

import (
	"math/rand"
	"strings"
	"testing"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
)

// smallCase builds a small twitter instance and returns its oracle and a
// query whose answer has at least two results with distinct upper bounds,
// with that answer.
func smallCase(t *testing.T) (oracle, query, answer) {
	t.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets = 300, 1200
	spec, _ := datagen.Twitter(o)
	in, err := graph.BuildSpec(spec, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(in, index.Build(in))
	pool, err := paperPool(in, rand.New(rand.NewSource(1)), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range pool {
		a, _, err := reference(in, eng, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) >= 2 && a.Rows[0].Upper > a.Rows[1].Upper {
			return oracle{in: in, eng: eng}, q, a
		}
	}
	t.Fatal("no query in the pool has two results with distinct upper bounds")
	return oracle{}, query{}, answer{}
}

func clone(a answer) answer {
	a.Rows = append([]row(nil), a.Rows...)
	return a
}

func TestCheckerAcceptsEngineAnswer(t *testing.T) {
	orc, q, a := smallCase(t)
	if err := checkProps(a, q.k); err != nil {
		t.Fatalf("properties: %v", err)
	}
	if err := orc.check(q, a); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

func TestCheckerRejectsPerturbedAnswers(t *testing.T) {
	orc, q, a := smallCase(t)
	nonAnswer := ""
	for _, d := range orc.in.DocRoots() {
		uri := orc.in.URIOf(d)
		found := false
		for _, r := range a.Rows {
			found = found || r.URI == uri
		}
		if !found {
			nonAnswer = uri
			break
		}
	}
	cases := []struct {
		name    string
		perturb func(a *answer)
		want    string // substring of the error
	}{
		{"swapped order", func(a *answer) { a.Rows[0], a.Rows[1] = a.Rows[1], a.Rows[0] }, "larger upper bound"},
		{"swapped-in document", func(a *answer) { a.Rows[0].URI = nonAnswer }, "outside"},
		{"score above interval", func(a *answer) {
			w := a.Rows[0].Upper - a.Rows[0].Lower + 1e-3
			a.Rows[0].Lower -= w
			a.Rows[0].Upper -= w
			for i := 1; i < len(a.Rows); i++ { // keep the upper bounds ordered
				a.Rows[i].Upper = min(a.Rows[i].Upper, a.Rows[0].Upper)
				a.Rows[i].Lower = min(a.Rows[i].Lower, a.Rows[i].Upper)
			}
		}, "outside"},
		{"inverted interval", func(a *answer) { a.Rows[0].Lower, a.Rows[0].Upper = a.Rows[0].Upper, a.Rows[0].Lower-1 }, "lower"},
		{"duplicate result", func(a *answer) { a.Rows[1] = a.Rows[0] }, "twice"},
		{"too many results", func(a *answer) {
			for len(a.Rows) <= q.k {
				a.Rows = append(a.Rows, row{URI: "extra" + strings.Repeat("x", len(a.Rows)), Lower: 0, Upper: 0})
			}
		}, "results for k"},
		{"not exact", func(a *answer) { a.Exact = false }, "not exact"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := clone(a)
			c.perturb(&p)
			err := checkProps(p, q.k)
			if err == nil {
				err = orc.check(q, p)
			}
			if err == nil {
				t.Fatalf("perturbed answer accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("rejected for %q, want a message containing %q", err, c.want)
			}
			if p.key() == a.key() {
				t.Fatalf("perturbed answer has the original's identity key")
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, m, q3 := quartiles(c.in)
		if [3]float64{q1, m, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, m, q3, c.want)
		}
	}
}
