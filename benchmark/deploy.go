package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"s3"
	"s3/internal/dshard"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/obs"
	"s3/internal/server"
	"s3/internal/snap"
)

// stopwatch accumulates the milliseconds spent in named layers.
type stopwatch map[string]float64

func (s stopwatch) time(layer string, f func() error) error {
	t := time.Now()
	err := f()
	s[layer] += msSince(t)
	return err
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// target is one deployment under test. search answers one pool query;
// op is the request's ordinal in the stream.
type target interface {
	search(client, op int, q query) (answer, outcome, error)
	close()
}

// outcome is how a serving tier produced an answer.
type outcome int

const (
	outcomeCold outcome = iota
	outcomeWarm
	outcomeCached
)

// buildLayers builds the instance and its connection index from a spec.
func buildLayers(spec graph.Spec, sw stopwatch) (in *graph.Instance, ix *index.Index, err error) {
	err = sw.time("graph.build_ms", func() (err error) {
		in, err = graph.BuildSpec(spec, analyzer)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("building instance: %w", err)
	}
	sw.time("index.build_ms", func() error {
		ix = index.Build(in)
		return nil
	})
	return in, ix, nil
}

// writeShardSet partitions the instance into n component shards and
// writes the shard set under manifest.
func writeShardSet(manifest string, in *graph.Instance, ix *index.Index, n int) error {
	parts, err := graph.PartitionComponents(in, n)
	if err != nil {
		return err
	}
	_, err = snap.WriteShardSetFiles(manifest, in, ix, parts)
	return err
}

// engineTarget is engine-cold: the public single-instance API over an
// mmap-opened snapshot, with no proximity cache attached.
type engineTarget struct {
	inst *s3.Instance
}

func setupEngine(spec graph.Spec, dir string, sw stopwatch) (*engineTarget, error) {
	in, ix, err := buildLayers(spec, sw)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "instance.snap")
	err = sw.time("snap.write_ms", func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := snap.Write(f, in, ix); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	t := &engineTarget{}
	err = sw.time("snap.open_ms", func() (err error) {
		t.inst, err = s3.OpenSnapshot(path, s3.LoadMmap)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("opening snapshot: %w", err)
	}
	return t, nil
}

func (t *engineTarget) search(_, _ int, q query) (answer, outcome, error) {
	rs, info, err := t.inst.SearchInfoed(q.seeker, q.keywords, s3.WithK(q.k))
	return fromPublic(rs, info), outcomeCold, err
}

func (t *engineTarget) close() { t.inst.Close() }

// listener serves a handler on a loopback port until closed.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// Dist-cold topology: 4 component shards on 2 worker hosts in this
// process, each serving 2 shards over loopback HTTP with its proximity
// cache off, behind one coordinator.
const (
	distShards = 4
	distHosts  = 2
)

// workerHosts are dist-cold's worker hosts. They outlive set-ups, the
// way worker processes outlive the shard sets they serve: each set-up
// writes a new shard set over the manifest path by rename-to-replace and
// Loads it, which also releases the previous set's mapping.
type workerHosts struct {
	manifest string
	workers  []*dshard.Worker
	hosts    []*listener
}

func newWorkerHosts(manifest string, tap *wireTap) (*workerHosts, error) {
	h := &workerHosts{manifest: manifest}
	for i := 0; i < distHosts; i++ {
		var shards []int
		for s := i; s < distShards; s += distHosts {
			shards = append(shards, s)
		}
		w := dshard.NewWorker(dshard.WorkerConfig{
			ManifestPath:   manifest,
			Shards:         shards,
			Mode:           snap.LoadMmap,
			ProxCacheBytes: -1,
		})
		var hd http.Handler = w.Handler()
		if tap != nil {
			hd = tap.wrap(hd)
		}
		l, err := listen(hd)
		if err != nil {
			h.close()
			return nil, err
		}
		h.workers = append(h.workers, w)
		h.hosts = append(h.hosts, l)
	}
	return h, nil
}

func (h *workerHosts) urls() []string {
	var out []string
	for _, l := range h.hosts {
		out = append(out, l.url)
	}
	return out
}

// shardRounds sums the workers' per-shard round counters.
func (h *workerHosts) shardRounds() uint64 {
	var n uint64
	for _, w := range h.workers {
		for _, s := range w.Stats().Shards {
			n += s.Rounds
		}
	}
	return n
}

func (h *workerHosts) close() {
	for _, l := range h.hosts {
		l.close()
	}
}

// distTarget is dist-cold: s3.OpenCoordinator over the worker hosts.
type distTarget struct {
	di  *s3.DistributedInstance
	reg *obs.Registry
}

func setupDist(spec graph.Spec, dir string, sw stopwatch, h *workerHosts) (*distTarget, error) {
	in, ix, err := buildLayers(spec, sw)
	if err != nil {
		return nil, err
	}
	staged := filepath.Join(dir, filepath.Base(h.manifest))
	err = sw.time("snap.write_ms", func() error {
		if err := writeShardSet(staged, in, ix, distShards); err != nil {
			return err
		}
		return replaceShardSet(staged, h.manifest, distShards)
	})
	if err != nil {
		return nil, fmt.Errorf("writing shard set: %w", err)
	}
	for i, w := range h.workers {
		if err := sw.time("dshard.worker_load_ms", w.Load); err != nil {
			return nil, fmt.Errorf("loading worker host %d: %w", i, err)
		}
	}
	t := &distTarget{reg: obs.NewRegistry()}
	err = sw.time("snap.open_ms", func() (err error) {
		t.di, err = s3.OpenCoordinator(h.manifest, h.urls(), s3.LoadMmap)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("opening coordinator: %w", err)
	}
	t.di.AttachRegistry(t.reg)
	if err := sw.time("dshard.probe_ms", func() error { return t.di.Probe(context.Background()) }); err != nil {
		t.close()
		return nil, fmt.Errorf("probing workers: %w", err)
	}
	return t, nil
}

func (t *distTarget) search(_, _ int, q query) (answer, outcome, error) {
	rs, info, err := t.di.SearchInfoed(q.seeker, q.keywords, s3.WithK(q.k))
	return fromPublic(rs, info), outcomeCold, err
}

func (t *distTarget) close() { t.di.Close() }

// replaceShardSet moves a shard set written at staged over the one at
// manifest, shards first and the manifest (which names them) last. The
// replaced files may still be mapped by a served generation, which is why
// they are replaced by rename and never rewritten in place.
func replaceShardSet(staged, manifest string, shards int) error {
	for s := 0; s < shards; s++ {
		suffix := ".shard-" + strconv.Itoa(s)
		if err := os.Rename(staged+suffix, manifest+suffix); err != nil {
			return err
		}
	}
	return os.Rename(staged, manifest)
}

// serveShards is the serve-mix shard count: one in-process
// ShardedInstance with 2 component shards.
const serveShards = 2

// serveTarget is serve-mix: server.Server with its default result and
// proximity caches over an mmap-opened 2-shard set, driven over
// keep-alive HTTP connections (one per client).
type serveTarget struct {
	srv      *server.Server
	l        *listener
	clients  []*http.Client
	dir      string
	manifest string
	in       *graph.Instance
	ix       *index.Index
	tap      *serveTap // nil when untraced

	mu       sync.Mutex
	reopenMS []float64 // Loader time of each reload
}

func setupServe(spec graph.Spec, dir string, clients int, sw stopwatch, tap *serveTap) (*serveTarget, error) {
	in, ix, err := buildLayers(spec, sw)
	if err != nil {
		return nil, err
	}
	t := &serveTarget{dir: dir, manifest: filepath.Join(dir, "serve.set"), in: in, ix: ix, tap: tap}
	if err := sw.time("snap.write_ms", func() error { return writeShardSet(t.manifest, in, ix, serveShards) }); err != nil {
		return nil, fmt.Errorf("writing shard set: %w", err)
	}
	var si *s3.ShardedInstance
	err = sw.time("snap.open_ms", func() (err error) {
		si, err = s3.OpenShardSet(t.manifest, s3.LoadMmap)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("opening shard set: %w", err)
	}
	t.srv, err = server.New(server.Config{Instance: si, Loader: t.load})
	if err != nil {
		si.Close()
		return nil, err
	}
	var h http.Handler = t.srv.Handler()
	if tap != nil {
		h = tap.wrap(h)
	}
	if t.l, err = listen(h); err != nil {
		si.Close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return t, nil
}

// load is the server's reload source: it reopens the shard set.
func (t *serveTarget) load() (s3.Queryable, error) {
	start := time.Now()
	si, err := s3.OpenShardSet(t.manifest, s3.LoadMmap)
	d := msSince(start)
	t.mu.Lock()
	t.reopenMS = append(t.reopenMS, d)
	t.mu.Unlock()
	return si, err
}

type searchBody struct {
	Seeker   string   `json:"seeker"`
	Keywords []string `json:"keywords"`
	K        int      `json:"k"`
}

type searchReply struct {
	answer
	Cached bool `json:"cached"`
	Warm   bool `json:"warm"`
}

func (t *serveTarget) search(client, op int, q query) (answer, outcome, error) {
	body, err := json.Marshal(searchBody{Seeker: q.seeker, Keywords: q.keywords, K: q.k})
	if err != nil {
		return answer{}, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, t.l.url+"/search", bytes.NewReader(body))
	if err != nil {
		return answer{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if t.tap != nil {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	var r searchReply
	if err := t.roundTrip(client, req, &r); err != nil {
		return answer{}, 0, err
	}
	oc := outcomeCold
	switch {
	case r.Cached:
		oc = outcomeCached
	case r.Warm:
		oc = outcomeWarm
	}
	return r.answer, oc, nil
}

// roundTrip sends a request on the client's connection and decodes a 200
// reply.
func (t *serveTarget) roundTrip(client int, req *http.Request, v any) error {
	resp, err := t.clients[client].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", req.Method, req.URL.Path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// reload rewrites the identical shard set by rename-to-replace and then
// asks the server to reload. It returns the number of result-cache
// entries the reload re-warmed.
func (t *serveTarget) reload(client int) (int, error) {
	stage := filepath.Join(t.dir, "stage")
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return 0, err
	}
	staged := filepath.Join(stage, filepath.Base(t.manifest))
	if err := writeShardSet(staged, t.in, t.ix, serveShards); err != nil {
		return 0, fmt.Errorf("rewriting shard set: %w", err)
	}
	if err := replaceShardSet(staged, t.manifest, serveShards); err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, t.l.url+"/reload", nil)
	if err != nil {
		return 0, err
	}
	var r struct {
		Warmed int `json:"warmed"`
	}
	if err := t.roundTrip(client, req, &r); err != nil {
		return 0, err
	}
	return r.Warmed, nil
}

// stats is the part of GET /stats the per-layer ledger reads.
type stats struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
	} `json:"cache"`
	ProxCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"prox_cache"`
}

func (t *serveTarget) stats() (stats, error) {
	var st stats
	req, err := http.NewRequest(http.MethodGet, t.l.url+"/stats", nil)
	if err != nil {
		return st, err
	}
	return st, t.roundTrip(0, req, &st)
}

func (t *serveTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
	if t.l != nil {
		t.l.close()
	}
	if t.srv != nil {
		t.srv.Instance().Close()
	}
}
