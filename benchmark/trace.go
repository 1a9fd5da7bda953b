package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"s3/internal/core"
	"s3/internal/graph"
	"s3/internal/obs"
	"s3/internal/score"
)

// The traced run records spans from the benchmark's own code around calls
// into each layer's public functions; nothing inside the program is
// instrumented. Wrappers only observe: they forward every optional
// interface of what they wrap, so the traced program is the measured one.

// interval is one span on the monotonic clock, in nanoseconds since the
// run's base time.
type interval struct{ start, end int64 }

// wireTap is middleware around a dshard worker host's handler: it records
// each round-protocol RPC's handling interval and its request and reply
// bytes.
type wireTap struct {
	base time.Time

	mu         sync.Mutex
	spans      []interval
	rpcs       int
	reqBytes   int64
	replyBytes int64
}

func newWireTap(base time.Time) *wireTap { return &wireTap{base: base} }

func (t *wireTap) now() int64 { return int64(time.Since(t.base)) }

func (t *wireTap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/shard/") {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		end := t.now()
		t.mu.Lock()
		t.spans = append(t.spans, interval{start, end})
		t.rpcs++
		if r.ContentLength > 0 {
			t.reqBytes += r.ContentLength
		}
		t.replyBytes += cw.n
		t.mu.Unlock()
	})
}

// wireCounts is a snapshot of a tap's counters.
type wireCounts struct {
	rpcs                 int
	reqBytes, replyBytes int64
}

func (t *wireTap) counts() wireCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return wireCounts{t.rpcs, t.reqBytes, t.replyBytes}
}

// busyWithin returns, for each window, how long at least one recorded
// span was active inside it (the union of the spans clipped to the
// window). Windows must not overlap.
func (t *wireTap) busyWithin(windows []interval) []float64 {
	t.mu.Lock()
	spans := append([]interval(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var longest int64
	for _, s := range spans {
		longest = max(longest, s.end-s.start)
	}
	out := make([]float64, len(windows))
	for i, w := range windows {
		// Spans are sorted by start; none that starts before
		// w.start-longest can reach into the window.
		lo := sort.Search(len(spans), func(j int) bool { return spans[j].start >= w.start-longest })
		var busy, reach int64 = 0, w.start
		for _, s := range spans[lo:] {
			if s.start >= w.end {
				break
			}
			a, b := max(s.start, reach), min(s.end, w.end)
			if b > a {
				busy += b - a
				reach = b
			}
		}
		out[i] = float64(busy) / 1e6
	}
	return out
}

// countingWriter counts the bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := c.ResponseWriter.(io.ReaderFrom); ok {
		n, err := rf.ReadFrom(r)
		c.n += n
		return n, err
	}
	return io.Copy(struct{ io.Writer }{c}, r)
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := c.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}

// Unwrap lets http.ResponseController reach the wrapped writer.
func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// opHeader carries a traced request's stream ordinal to serveTap.
const opHeader = "X-Bench-Op"

// serveTap is middleware around the server's handler: it times each
// traced request, keyed by its stream ordinal.
type serveTap struct {
	inflight sync.WaitGroup

	mu      sync.Mutex
	handler map[int]float64 // ordinal → handler ms
}

func newServeTap() *serveTap { return &serveTap{handler: make(map[int]float64)} }

func (t *serveTap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		t.inflight.Add(1)
		defer t.inflight.Done()
		start := time.Now()
		next.ServeHTTP(w, r)
		d := msSince(start)
		t.mu.Lock()
		t.handler[op] = d
		t.mu.Unlock()
	})
}

// handlerTimes returns the handler time of every traced request. The
// middleware records a time after the handler returns, which may be just
// after the client has read the reply, so it waits for handlers still
// running; call it only once no client sends traced requests.
func (t *serveTap) handlerTimes() map[int]float64 {
	t.inflight.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handler
}

// counterValue reads one unlabelled counter from a registry's text
// exposition (0 when absent).
func counterValue(reg *obs.Registry, name string) float64 {
	var b strings.Builder
	_, _ = reg.WriteTo(&b) // writes to a strings.Builder cannot fail
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}

// replayKernel re-runs a search's exploration rounds on a fresh proximity
// iterator — the paper's border propagation, prox≤n = prox≤n−1 + U·prox —
// and returns the time spent in Step and the border nodes it produced.
func replayKernel(in *graph.Instance, seeker graph.NID, rounds int) (stepMS float64, border int) {
	it := score.NewIterator(in, core.DefaultOptions().Params, seeker)
	start := time.Now()
	for i := 0; i < rounds && !it.Done(); i++ {
		it.Step()
		border += len(it.Border())
	}
	return msSince(start), border
}
