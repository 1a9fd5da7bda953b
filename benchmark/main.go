// Command benchmark drives the S3k deployments of this repository through
// their public entry points in closed loops, checks every answer, and
// prints the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1) named in BENCHMARK.json as one JSON line. Run it from the
// repository root through benchmark/run.sh; README.md describes the
// workloads, the metrics and the compare mode.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// specFile is the benchmark definition, read from the repository root.
const specFile = "BENCHMARK.json"

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", engineCold, "workload: engine-cold, dist-cold or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the query pool and the request stream")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed loop in seconds (it ends at the next round boundary)")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := mainErr(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	rep, err := run(cfg, work)
	if err != nil {
		return err
	}
	fmt.Printf("env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), cfg.seed)
	fmt.Printf("run workload=%s trace=%d seconds=%d clients=%d pool=%d left_out=%d setups=%d\n",
		cfg.workload, btoi(cfg.trace), cfg.seconds, rep.clients, rep.poolSize, rep.dropped, setups)
	fmt.Printf("ops search attempted=%d failed=%d\n", rep.searches, rep.searchFail)
	fmt.Printf("ops reload attempted=%d failed=%d in_flight_share=%.4f\n", rep.reloads, rep.rFail, rep.reloadShare)
	for _, p := range rep.problems {
		fmt.Printf("wrong %s\n", p)
	}
	metrics := spec.EndToEnd
	if cfg.trace {
		metrics = spec.PerLayer
	}
	out := resultLine{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.searches + rep.reloads,
		Failed:    rep.searchFail + rep.rFail,
		Metrics:   make(map[string]metricOut, len(metrics)),
	}
	for _, ms := range metrics {
		v, ok := rep.metrics[ms.Name]
		if !ok {
			return fmt.Errorf("%s names metric %s, which this benchmark does not measure", specFile, ms.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", ms.Name, v)
		}
		out.Metrics[ms.Name] = metricOut{Value: v, Unit: ms.Unit}
		fmt.Printf("metric %s %v %s\n", ms.Name, v, ms.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name (Linux); "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
