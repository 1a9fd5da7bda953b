package main

import (
	"fmt"
	"math/rand"

	"s3/internal/bench"
	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

// Input sizes. The instance is the I1-like twitter stand-in at its
// generator defaults (2,000 users, 8,000 tweets), the same for every
// workload seed: the seed draws the workload, not the graph, because a
// different graph shifts how many queries stop early, and the median of
// the mix sits between those and the ones that explore. The cold pools
// hold coldPerID queries for each of the paper's eight qset(f, l, k) ids;
// the serve-mix pool is about four times the server's default
// result-cache capacity (1,024 entries), so the cache holds only its head.
const (
	coldPerID  = 64
	servePerID = 512
	// A request names pool entry i with probability ∝ (serveQueryShift +
	// i)^-serveQueryZipf, and pool entries carry seekers drawn the same
	// way over the users. The seeker skew matters because only a few
	// dozen proximity checkpoints fit in the default 64 MiB proximity
	// cache. Together they give ≈70% result-cache hits, ≈10% warm resumes
	// and ≈20% cold searches, which puts the p50 inside the hits and the
	// p90 inside the cold searches rather than at a boundary between them.
	serveQueryZipf   = 1.1
	serveQueryShift  = 5
	serveSeekerZipf  = 1.1
	serveSeekerShift = 3
	// serveEpoch is the length of one serve-mix round in request
	// ordinals: one shard-set rewrite and POST /reload at the epoch's
	// first ordinal, then serveEpoch-1 searches. Reloads sit at fixed
	// ordinals, never on a timer, so the write path's share of the work
	// does not depend on speed. The length is chosen so that the reads
	// dominate, as in a read-mostly service, while every run still
	// carries the write path: a reload (rewrite, reopen, purge, warm
	// replay of 256 answers, proximity re-seed) takes about 2 s here,
	// and it is in flight for about a tenth of the timed loop's wall
	// time (the in_flight_share of each run's "ops reload" line, and
	// server.reload_share in the per-layer ledger). An epoch takes about
	// serveEpochSeconds here.
	serveEpoch        = 24000
	serveEpochSeconds = 20
	// serveBlock is the serve-mix statistics block: latency and
	// throughput are computed per block of serveBlock ordinals and the
	// medians over blocks are reported, so one run yields tens of
	// samples and the blocks a reload slows are a minority of them.
	serveBlock = 500
	// serveWarmup searches precede the timed epochs, untimed, so the
	// result cache holds a hot set for the first reload to replay.
	serveWarmup = 1000
	// poolSpare is how many candidates beyond the pool's share are drawn
	// for each paper id, per 16 pool entries of the id. Candidates whose
	// single-engine answer ends in a precision stop (the seeker reaches
	// no matching document before the proximity tail underflows) are
	// left out of the pool: the public API marks those answers as not
	// exact although nothing more can be found, so the checker would
	// reject them, and only some seeds draw such a query.
	poolSpare = 1
	// oraclePerID queries of each paper id (the first ones of the pool)
	// are checked against Engine.Exhaustive in every run.
	oraclePerID = 2
)

// serveEpochs is how many epochs a serve-mix run of the given length
// performs: the nearest whole number of serveEpochSeconds, at least one.
// A serve-mix run is a fixed amount of work, not a deadline, because a
// deadline that falls near the end of an epoch makes the run one epoch
// or two depending on the machine's speed that minute.
func serveEpochs(seconds int) int {
	return max(1, (seconds+serveEpochSeconds/2)/serveEpochSeconds)
}

// query is one search request of a pool.
type query struct {
	seeker   string
	nid      graph.NID
	keywords []string
	k        int
}

// analyzer is the text pipeline the generated instances are built with
// (the generators emit identifier-like vocabularies).
var analyzer = text.Analyzer{Lang: text.None}

// genSpec generates the twitter instance.
func genSpec() graph.Spec {
	spec, _ := datagen.Twitter(datagen.DefaultTwitterOptions())
	return spec
}

// paperCandidates draws n candidate queries for each of the paper's
// eight workload ids with bench.BuildWorkload, one list per id.
func paperCandidates(in *graph.Instance, rng *rand.Rand, n int) ([][]query, error) {
	ids := bench.PaperWorkloads()
	out := make([][]query, len(ids))
	for i, id := range ids {
		w, err := bench.BuildWorkload(in, id, n, rng.Int63())
		if err != nil {
			return nil, fmt.Errorf("drawing workload %s: %w", id, err)
		}
		for _, q := range w.Queries {
			out[i] = append(out[i], query{seeker: in.URIOf(q.Seeker), nid: q.Seeker, keywords: q.Keywords, k: id.K})
		}
	}
	return out, nil
}

// interleave takes the first perID candidates of each id that keep
// accepts (all of them when keep is nil) and interleaves them: pool
// entry i belongs to id i%8, so any prefix of the pool mixes all eight.
// It also returns, for each pool entry, its candidate index.
func interleave(cands [][]query, perID int, keep func(id, j int) bool) ([]query, [][2]int, error) {
	kept := make([][]int, len(cands))
	for i, cs := range cands {
		for j := range cs {
			if len(kept[i]) < perID && (keep == nil || keep(i, j)) {
				kept[i] = append(kept[i], j)
			}
		}
		if len(kept[i]) < perID {
			return nil, nil, fmt.Errorf("only %d of %d candidates of workload %s are usable, %d needed", len(kept[i]), len(cs), bench.PaperWorkloads()[i], perID)
		}
	}
	pool := make([]query, 0, perID*len(cands))
	from := make([][2]int, 0, cap(pool))
	for j := 0; j < perID; j++ {
		for i := range cands {
			pool = append(pool, cands[i][kept[i][j]])
			from = append(from, [2]int{i, kept[i][j]})
		}
	}
	return pool, from, nil
}

// paperPool draws perID queries for each of the paper's eight workload
// ids and interleaves them.
func paperPool(in *graph.Instance, rng *rand.Rand, perID int) ([]query, error) {
	cands, err := paperCandidates(in, rng, perID)
	if err != nil {
		return nil, err
	}
	pool, _, err := interleave(cands, perID, nil)
	return pool, err
}

// servePoolSeed fixes the serve-mix pool: its queries, their seekers
// and the popularity order of the seekers are the same for every
// workload seed, which draws the request stream. The ten most popular
// users issue about two fifths of the requests and the hottest pool
// entries are answered from the result cache, so a seed that also drew
// the pool would mostly measure which queries and users it made popular:
// with seed-drawn pools, p50 ranged from 0.072 to 0.123 ms across ten
// seeds, each seed repeating its own figure within a few percent.
const servePoolSeed = 1

// skewSeekers replaces the candidates' uniformly drawn seekers with
// Zipf-distributed ones over a shuffled order of the users that have
// social edges, both drawn from rng.
func skewSeekers(in *graph.Instance, rng *rand.Rand, cands [][]query, s, v float64) {
	var users []graph.NID
	for _, u := range in.Users() {
		if len(in.OutEdges(u)) > 0 {
			users = append(users, u)
		}
	}
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	z := rand.NewZipf(rng, s, v, uint64(len(users)-1))
	for _, cs := range cands {
		for i := range cs {
			u := users[z.Uint64()]
			cs[i].nid, cs[i].seeker = u, in.URIOf(u)
		}
	}
}

// oracleSample returns the pool indices checked against the oracle: the
// first oraclePerID queries of every paper id.
func oracleSample() []int {
	n := oraclePerID * len(bench.PaperWorkloads())
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
