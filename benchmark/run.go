package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"s3/internal/core"
	"s3/internal/graph"
	"s3/internal/index"
)

// Workload names.
const (
	engineCold = "engine-cold"
	distCold   = "dist-cold"
	serveMix   = "serve-mix"
)

// setups is how many times a run sets its deployment up; setup_s is the
// median, because a single sample varies by tens of percent.
const setups = 7

// coldRound is the round length of the cold workloads: a 128-query block
// of the pool, 16 queries of each paper id. The loop stops only at round
// boundaries, and the latency and throughput figures are medians over
// rounds, so a burst of interference on the machine moves one round, not
// the run.
const coldRound = 128

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// report is what a run measured and found.
type report struct {
	clients, poolSize, dropped           int
	searches, searchFail, reloads, rFail int
	reloadShare                          float64 // reload wall time ÷ timed loop wall time
	metrics                              map[string]float64
	problems                             []string // wrong answers; empty when correct
}

// answers checks every answer as it arrives: the answer properties, and
// that repeated requests get byte-identical answers (across cache hits,
// warm resumes and reloads). It keeps the first answer to each request
// for the oracle and cross-deployment checks after the run.
type answers struct {
	pool []query

	mu       sync.Mutex
	first    map[int]answer
	keys     map[int]string
	problems []string
}

// maxProblems caps how many wrong answers a run describes.
const maxProblems = 10

func (a *answers) problem(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.problems) < maxProblems {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

func (a *answers) record(qi int, ans answer) {
	q := a.pool[qi]
	if err := checkProps(ans, q.k); err != nil {
		a.problem("query %d (%s %v k=%d): %v", qi, q.seeker, q.keywords, q.k, err)
	}
	key := ans.key()
	a.mu.Lock()
	k0, seen := a.keys[qi]
	if !seen {
		a.keys[qi], a.first[qi] = key, ans
	}
	a.mu.Unlock()
	if seen && k0 != key {
		a.problem("query %d (%s %v k=%d): answer differs from an earlier answer to the same request", qi, q.seeker, q.keywords, q.k)
	}
}

// opRec is one completed search of the timed loop.
type opRec struct {
	ord     int
	latMS   float64
	outcome outcome
	span    interval // on the run's clock
}

// runner holds one run's inputs, deployment and records.
type runner struct {
	cfg     config
	in      *graph.Instance // the oracle's, built after the timed loop
	eng     *core.Engine
	pool    []query
	refKeys []string // the single engine's answer to each pool entry
	dropped int      // candidates left out of the pool
	clients int
	chk     *answers
	base    time.Time // the run's clock: spans are nanoseconds since base
	wt      *wireTap  // traced dist-cold only
	st      *serveTap // traced serve-mix only
	tgt     target
	hosts   *workerHosts // dist-cold
	dist    *distTarget
	serve   *serveTarget

	recs [][]opRec // per client; reset before the timed loop

	mu       sync.Mutex
	reloadMS []float64
	warmed   []float64
	firstErr error
}

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// do runs one operation of the stream on client c.
func (r *runner) do(c int, o op) error {
	if o.reload {
		start := time.Now()
		w, err := r.serve.reload(c)
		if err != nil {
			r.fail(err)
			return err
		}
		d := msSince(start)
		r.mu.Lock()
		r.reloadMS = append(r.reloadMS, d)
		r.warmed = append(r.warmed, float64(w))
		r.mu.Unlock()
		return nil
	}
	t0 := r.now()
	a, oc, err := r.tgt.search(c, o.ord, r.pool[o.q])
	t1 := r.now()
	if err != nil {
		r.fail(err)
		return err
	}
	r.chk.record(o.q, a)
	r.recs[c] = append(r.recs[c], opRec{ord: o.ord, latMS: float64(t1-t0) / 1e6, outcome: oc, span: interval{t0, t1}})
	return nil
}

func run(cfg config, workDir string) (*report, error) {
	// Inputs: the query pool drawn from the seed over the instance, and
	// the single in-process engine's answer to each pool entry, which
	// the answers of the run are compared with after it. The instance
	// and engine are dropped before the first set-up and rebuilt for the
	// oracle only after the peak resident set is read, so the
	// benchmark's own reference copy is not part of peak_rss_mb. Not
	// part of any timing.
	in, err := graph.BuildSpec(genSpec(), analyzer)
	if err != nil {
		return nil, fmt.Errorf("building reference instance: %w", err)
	}
	r := &runner{cfg: cfg, clients: 2, base: time.Now()}
	rng := rand.New(rand.NewSource(cfg.seed))
	perID := coldPerID
	switch cfg.workload {
	case engineCold:
	case distCold:
		// One search fans out over both hosts and fills both cores.
		r.clients = 1
	case serveMix:
		perID = servePerID
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", cfg.workload, engineCold, distCold, serveMix)
	}
	poolRng := rng
	if cfg.workload == serveMix {
		poolRng = rand.New(rand.NewSource(servePoolSeed))
	}
	cands, err := paperCandidates(in, poolRng, perID+perID/16*poolSpare)
	if err != nil {
		return nil, err
	}
	if cfg.workload == serveMix {
		skewSeekers(in, poolRng, cands, serveSeekerZipf, serveSeekerShift)
	}
	refs := r.referencePass(in, core.NewEngine(in, index.Build(in)), cands)
	for i, rs := range refs {
		for j, ref := range rs {
			if ref.err != nil {
				q := cands[i][j]
				return nil, fmt.Errorf("reference engine on %s %v k=%d: %w", q.seeker, q.keywords, q.k, ref.err)
			}
			if ref.precision {
				r.dropped++
			}
		}
	}
	pool, from, err := interleave(cands, perID, func(i, j int) bool { return !refs[i][j].precision })
	if err != nil {
		return nil, err
	}
	r.pool = pool
	r.refKeys = make([]string, len(pool))
	var work engRec
	for qi, f := range from {
		ref := refs[f[0]][f[1]]
		r.refKeys[qi] = ref.key
		work.add(ref.work)
	}
	in, refs = nil, nil
	r.chk = &answers{pool: r.pool, first: make(map[int]answer), keys: make(map[int]string)}
	r.recs = make([][]opRec, r.clients)
	if cfg.trace {
		switch cfg.workload {
		case distCold:
			r.wt = newWireTap(r.base)
		case serveMix:
			r.st = newServeTap()
		}
	}
	rep := &report{clients: r.clients, poolSize: len(r.pool), dropped: r.dropped, metrics: make(map[string]float64)}
	addTallies := func(ts []tally) {
		for _, t := range ts {
			rep.searches += t.searches
			rep.searchFail += t.sFail
			rep.reloads += t.reloads
			rep.rFail += t.rFail
		}
	}

	if cfg.workload == distCold {
		if r.hosts, err = newWorkerHosts(filepath.Join(workDir, "dist.set"), r.wt); err != nil {
			return nil, err
		}
		defer r.hosts.close()
	}
	setupS, setupLayers, err := r.setUp(workDir)
	if err != nil {
		return nil, err
	}
	defer r.tgt.close()

	// The stream. The cold workloads walk the pool in 128-query rounds
	// and warm up for one round, untimed. Serve-mix warms up for
	// serveWarmup searches, untimed, then runs epochs that each begin
	// with a reload, so every timed epoch starts from the state a reload
	// leaves behind.
	var warm, sched *schedule
	first, block := coldRound, coldRound
	if r.serve != nil {
		z := rand.NewZipf(rng, serveQueryZipf, serveQueryShift, uint64(len(r.pool)-1))
		search := func(ord int) op { return op{ord: ord, q: int(z.Uint64())} }
		warm = &schedule{round: serveWarmup, at: search}
		first, block = serveWarmup, serveBlock
		sched = &schedule{round: serveEpoch, first: first, next: first, at: func(ord int) op {
			if (ord-first)%serveEpoch == 0 {
				return op{ord: ord, reload: true}
			}
			return search(ord)
		}}
	} else {
		sched = &schedule{round: coldRound, at: func(ord int) op { return op{ord: ord, q: ord % len(r.pool)} }}
		warm = sched
	}
	warm.runRounds(1)
	addTallies(closedLoop(r.clients, warm, r.do))

	// The timed loop.
	for c := range r.recs {
		r.recs[c] = r.recs[c][:0]
	}
	nReload0 := len(r.reloadMS)
	before, err := r.layerCounters()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	if r.serve != nil {
		sched.runRounds(serveEpochs(cfg.seconds))
	} else {
		sched.runFor(time.Duration(cfg.seconds) * time.Second)
	}
	loopStart := time.Now()
	tallies := closedLoop(r.clients, sched, r.do)
	loopMS := msSince(loopStart)
	runtime.ReadMemStats(&mem1)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	if r.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failed operation:", r.firstErr)
	}
	addTallies(tallies)
	var ops []opRec
	for _, rs := range r.recs {
		ops = append(ops, rs...)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("no search completed in the timed loop")
	}
	m := rep.metrics
	m["latency_p50_ms"], m["latency_p90_ms"], m["throughput_qps"] = blockMedians(ops, first, block)
	m["setup_s"] = median(setupS)
	m["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	rep.reloadShare = sum(r.reloadMS[nReload0:]) / loopMS

	// The checks: the single-engine answers, then the oracle over a
	// rebuilt reference instance and engine.
	r.crossCheck()
	if r.in, err = graph.BuildSpec(genSpec(), analyzer); err != nil {
		return nil, fmt.Errorf("rebuilding reference instance: %w", err)
	}
	for i, q := range r.pool {
		if r.in.URIOf(q.nid) != q.seeker {
			return nil, fmt.Errorf("rebuilt reference instance renumbers seeker %s of query %d", q.seeker, i)
		}
	}
	r.eng = core.NewEngine(r.in, index.Build(r.in))
	r.oracleCheck()
	rep.problems = r.chk.problems

	if cfg.trace {
		done := float64(len(ops))
		m["traced.latency_p50_ms"] = m["latency_p50_ms"]
		for _, name := range setupLayerNames {
			m[name] = median(setupLayers[name])
		}
		n := float64(len(r.pool))
		m["core.search_ms"] = work.searchMS / n
		m["score.step_ms"] = work.stepMS / n
		m["core.self_ms"] = (work.searchMS - work.stepMS) / n
		m["core.rounds"] = work.rounds / n
		m["core.candidates"] = work.cands / n
		m["score.border_nodes"] = work.border / n
		m["core.allocs"] = float64(mem1.Mallocs-mem0.Mallocs) / done
		m["core.alloc_kb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / done
		if err := r.tierLedger(m, ops, before, nReload0); err != nil {
			return nil, err
		}
		if r.serve != nil {
			m["server.reload_share"] = rep.reloadShare
		}
	}
	return rep, nil
}

// setUp sets the deployment up `setups` times, from a generated spec to
// the first answer, and keeps the last one. It returns each set-up's
// seconds and its per-layer milliseconds.
func (r *runner) setUp(workDir string) ([]float64, map[string][]float64, error) {
	var setupS []float64
	layers := make(map[string][]float64)
	for i := 0; i < setups; i++ {
		if r.tgt != nil {
			r.tgt.close()
			r.tgt = nil
		}
		spec := genSpec()
		dir := filepath.Join(workDir, "setup-"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		// Collect the previous set-up's garbage before the clock starts.
		runtime.GC()
		sw := stopwatch{}
		start := time.Now()
		var err error
		switch r.cfg.workload {
		case engineCold:
			r.tgt, err = setupEngine(spec, dir, sw)
		case distCold:
			r.dist, err = setupDist(spec, dir, sw, r.hosts)
			r.tgt = r.dist
		case serveMix:
			r.serve, err = setupServe(spec, dir, r.clients, sw, r.st)
			r.tgt = r.serve
		}
		if err != nil {
			r.tgt = nil
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		a, _, err := r.tgt.search(0, -1, r.pool[0])
		if err != nil {
			r.tgt.close()
			return nil, nil, fmt.Errorf("set-up: first answer: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		for k, v := range sw {
			layers[k] = append(layers[k], v)
		}
		r.chk.record(0, a)
	}
	return setupS, layers, nil
}

// blockMedians splits the timed searches into blocks of `block`
// ordinals counted from `first` and returns the medians over blocks of
// each block's p50 and p90 latency and of its throughput (searches over
// the block's wall time).
func blockMedians(ops []opRec, first, block int) (p50, p90, qps float64) {
	byRound := make(map[int][]opRec)
	for _, o := range ops {
		b := (o.ord - first) / block
		byRound[b] = append(byRound[b], o)
	}
	keys := make([]int, 0, len(byRound))
	for b := range byRound {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	var p50s, p90s, rates []float64
	for _, b := range keys {
		rs := byRound[b]
		lat := make([]float64, len(rs))
		first, last := rs[0].span.start, rs[0].span.end
		for i, o := range rs {
			lat[i] = o.latMS
			first, last = min(first, o.span.start), max(last, o.span.end)
		}
		sort.Float64s(lat)
		p50s = append(p50s, quantile(lat, 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
		rates = append(rates, float64(len(rs))/(float64(last-first)/1e9))
	}

	return median(p50s), median(p90s), median(rates)
}

// engRec sums the single engine's work over pool entries, timed in the
// traced run.
type engRec struct{ searchMS, stepMS, rounds, cands, border float64 }

func (e *engRec) add(o engRec) {
	e.searchMS += o.searchMS
	e.stepMS += o.stepMS
	e.rounds += o.rounds
	e.cands += o.cands
	e.border += o.border
}

// refAnswer is the single engine's answer to one candidate query.
type refAnswer struct {
	key       string
	precision bool   // the search ended in a precision stop
	err       error  // the engine could not answer
	work      engRec // traced run only
}

// referencePass answers every candidate query on the single in-process
// engine, on both cores. The traced run also times the engine and
// replays its kernel here.
func (r *runner) referencePass(in *graph.Instance, eng *core.Engine, cands [][]query) [][]refAnswer {
	out := make([][]refAnswer, len(cands))
	var flat []int
	for i, cs := range cands {
		out[i] = make([]refAnswer, len(cs))
		for j := range cs {
			flat = append(flat, i<<20|j)
		}
	}
	forEach(flat, 2, func(ij int) {
		i, j := ij>>20, ij&(1<<20-1)
		q := cands[i][j]
		start := time.Now()
		ref, st, err := reference(in, eng, q)
		d := msSince(start)
		if err != nil {
			out[i][j].err = err
			return
		}
		ra := refAnswer{key: ref.key(), precision: st.Reason == core.StopPrecision}
		if r.cfg.trace {
			stepMS, border := replayKernel(in, q.nid, st.Iterations)
			ra.work = engRec{searchMS: d, stepMS: stepMS, rounds: float64(st.Iterations), cands: float64(st.Candidates), border: float64(border)}
		}
		out[i][j] = ra
	})
	return out
}

// crossCheck compares the first answer to each request of the run with
// the single engine's answer, byte for byte.
func (r *runner) crossCheck() {
	r.chk.mu.Lock()
	defer r.chk.mu.Unlock()
	for qi, got := range r.chk.keys {
		if got != r.refKeys[qi] {
			q := r.pool[qi]
			if len(r.chk.problems) < maxProblems {
				r.chk.problems = append(r.chk.problems, fmt.Sprintf("query %d (%s %v k=%d): answer differs from the single-engine answer", qi, q.seeker, q.keywords, q.k))
			}
		}
	}
}

// oracleCheck checks a fixed sample of answers against Engine.Exhaustive.
func (r *runner) oracleCheck() {
	orc := oracle{in: r.in, eng: r.eng}
	forEach(oracleSample(), 2, func(qi int) {
		q := r.pool[qi]
		r.chk.mu.Lock()
		a, ok := r.chk.first[qi]
		r.chk.mu.Unlock()
		if !ok {
			r.chk.problem("oracle query %d was never answered", qi)
			return
		}
		if err := orc.check(q, a); err != nil {
			r.chk.problem("query %d (%s %v k=%d): oracle: %v", qi, q.seeker, q.keywords, q.k, err)
		}
	})
}

// forEach runs f over items on n goroutines.
func forEach(items []int, n int, f func(i int)) {
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				f(i)
			}
		}()
	}
	for _, i := range items {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// counters are the tier counters read before and after the timed loop.
type counters struct {
	wire                      wireCounts
	shardRounds               uint64
	fetchedRounds, wastedSpec float64
	stats                     stats
	reopens                   int
}

func (r *runner) layerCounters() (counters, error) {
	var c counters
	if r.dist != nil {
		if r.wt != nil {
			c.wire = r.wt.counts()
		}
		c.shardRounds = r.hosts.shardRounds()
		c.fetchedRounds = counterValue(r.dist.reg, "s3_coord_round_batch_sum")
		c.wastedSpec = counterValue(r.dist.reg, "s3_coord_spec_wasted_total")
	}
	if r.serve != nil {
		var err error
		if c.stats, err = r.serve.stats(); err != nil {
			return c, fmt.Errorf("reading /stats: %w", err)
		}
		r.serve.mu.Lock()
		c.reopens = len(r.serve.reopenMS)
		r.serve.mu.Unlock()
	}
	return c, nil
}

// Per-layer metrics of the set-up, the dshard tier and the serving tier.
// A workload whose path does not contain a layer reports it as 0.
var (
	setupLayerNames = []string{"graph.build_ms", "index.build_ms", "snap.write_ms", "snap.open_ms", "dshard.worker_load_ms", "dshard.probe_ms"}
	wireLayerNames  = []string{"dshard.rpcs", "dshard.request_bytes", "dshard.reply_bytes", "dshard.worker_ms", "dshard.coord_hop_ms", "dshard.rounds_executed", "dshard.spec_useful_ratio"}
	serveLayerNames = []string{"server.handler_ms.cold", "server.handler_ms.warm", "server.handler_ms.cached", "server.hop_ms", "server.cache_hit_ratio", "proxcache.hit_ratio", "server.coalesced", "proxcache.evictions", "server.reload_ms", "snap.reopen_ms", "server.warmed", "server.reload_share"}
)

// tierLedger fills the dshard and serving-tier metrics of the traced run:
// per search over the timed loop unless the name says otherwise.
func (r *runner) tierLedger(m map[string]float64, ops []opRec, before counters, nReload0 int) error {
	for _, name := range append(wireLayerNames, serveLayerNames...) {
		m[name] = 0
	}
	done := float64(len(ops))
	after, err := r.layerCounters()
	if err != nil {
		return err
	}
	switch {
	case r.dist != nil:
		m["dshard.rpcs"] = float64(after.wire.rpcs-before.wire.rpcs) / done
		m["dshard.request_bytes"] = float64(after.wire.reqBytes-before.wire.reqBytes) / done
		m["dshard.reply_bytes"] = float64(after.wire.replyBytes-before.wire.replyBytes) / done
		windows := make([]interval, len(ops))
		for i, o := range ops {
			windows[i] = o.span
		}
		busy := r.wt.busyWithin(windows)
		var workerMS, hopMS float64
		for i, o := range ops {
			workerMS += busy[i]
			hopMS += o.latMS - busy[i]
		}
		m["dshard.worker_ms"] = workerMS / done
		m["dshard.coord_hop_ms"] = hopMS / done
		m["dshard.rounds_executed"] = float64(after.shardRounds-before.shardRounds) / done
		// Rounds fetched in batched RPCs, against the speculatively
		// fetched ones discarded unconsumed.
		m["dshard.spec_useful_ratio"] = 1
		if fetched := after.fetchedRounds - before.fetchedRounds; fetched > 0 {
			m["dshard.spec_useful_ratio"] = 1 - (after.wastedSpec-before.wastedSpec)/fetched
		}
	case r.serve != nil:
		handler := r.st.handlerTimes()
		var sum, cnt [3]float64
		var hop float64
		for _, o := range ops {
			h, ok := handler[o.ord]
			if !ok {
				return fmt.Errorf("trace: no handler time for request %d", o.ord)
			}
			sum[o.outcome] += h
			cnt[o.outcome]++
			hop += o.latMS - h
		}
		for oc, name := range []string{"server.handler_ms.cold", "server.handler_ms.warm", "server.handler_ms.cached"} {
			if cnt[oc] > 0 {
				m[name] = sum[oc] / cnt[oc]
			}
		}
		m["server.hop_ms"] = hop / done
		b, a := before.stats, after.stats
		m["server.cache_hit_ratio"] = ratio(a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses)
		m["proxcache.hit_ratio"] = ratio(a.ProxCache.Hits-b.ProxCache.Hits, a.ProxCache.Misses-b.ProxCache.Misses)
		m["server.coalesced"] = float64(a.Cache.Coalesced-b.Cache.Coalesced) / done
		m["proxcache.evictions"] = float64(a.ProxCache.Evictions-b.ProxCache.Evictions) / done
		r.serve.mu.Lock()
		m["snap.reopen_ms"] = mean(r.serve.reopenMS[before.reopens:])
		r.serve.mu.Unlock()
		m["server.reload_ms"] = mean(r.reloadMS[nReload0:])
		m["server.warmed"] = mean(r.warmed[nReload0:])
	}
	return nil
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
