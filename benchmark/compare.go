package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// savedRun is one run's saved standard output.
type savedRun struct {
	workload string
	seed     int64
	result   resultLine
}

// readRuns reads every regular file under dir as one run's output: the
// "run" line names the workload, the "env" line the seed, and the last
// line is the result.
func readRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		r, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func readRun(path string) (savedRun, error) {
	var r savedRun
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		for _, field := range strings.Fields(line) {
			k, v, _ := strings.Cut(field, "=")
			switch {
			case strings.HasPrefix(line, "run ") && k == "workload":
				r.workload = v
			case strings.HasPrefix(line, "env ") && k == "seed":
				r.seed, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.workload == "" {
		return r, fmt.Errorf("%s: no run line (not a benchmark output?)", path)
	}
	if err := json.Unmarshal([]byte(last), &r.result); err != nil {
		return r, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so figures agree with other tools reading the same
// runs.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// compareMain compares two sets of saved runs (the parent's, then the
// change's): for each workload and metric it prints each side's median
// and quartiles, how many same-seed pairs the change wins, and whether
// the move exceeds the metric's bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	metricByName := make(map[string]metricSpec)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metricByName[m.Name] = m
	}
	sides := make([][]savedRun, 2)
	for i, dir := range args {
		if sides[i], err = readRuns(dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	workloads := map[string]bool{}
	for _, r := range append(sides[0], sides[1]...) {
		workloads[r.workload] = true
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	regressions := 0
	for _, w := range names {
		a, b := filterRuns(sides[0], w), filterRuns(sides[1], w)
		if len(a) == 0 || len(b) == 0 {
			fmt.Printf("%s: runs on one side only (%d vs %d)\n", w, len(a), len(b))
			continue
		}
		fmt.Printf("%s: %d parent runs, %d change runs; failed share %s vs %s\n",
			w, len(a), len(b), failedShare(a), failedShare(b))
		var metrics []string
		for m := range a[0].result.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			ms := metricByName[m]
			line, regressed := compareMetric(ms, m, a, b)
			if regressed {
				regressions++
			}
			fmt.Println("  " + line)
		}
	}
	if regressions > 0 {
		return 3
	}
	return 0
}

func filterRuns(runs []savedRun, workload string) []savedRun {
	var out []savedRun
	for _, r := range runs {
		if r.workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func failedShare(runs []savedRun) string {
	var att, failed int
	for _, r := range runs {
		att += r.result.Attempted
		failed += r.result.Failed
	}
	return fmt.Sprintf("%d/%d", failed, att)
}

// compareMetric renders one metric's comparison and reports whether the
// change's median is worse than the parent's by more than the bound.
func compareMetric(ms metricSpec, name string, a, b []savedRun) (string, bool) {
	values := func(runs []savedRun) ([]float64, map[int64]float64) {
		var vs []float64
		bySeed := make(map[int64]float64)
		for _, r := range runs {
			if v, ok := r.result.Metrics[name]; ok {
				vs = append(vs, v.Value)
				bySeed[r.seed] = v.Value
			}
		}
		return vs, bySeed
	}
	av, aSeed := values(a)
	bv, bSeed := values(b)
	if len(av) == 0 || len(bv) == 0 {
		return fmt.Sprintf("%-28s missing on one side", name), false
	}
	lowerBetter := ms.Better != "higher"
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	a1, am, a3 := quartiles(av)
	b1, bm, b3 := quartiles(bv)
	wins, pairs := 0, 0
	for seed, x := range aSeed {
		if y, ok := bSeed[seed]; ok {
			pairs++
			if better(y, x) {
				wins++
			}
		}
	}
	move := 0.0
	if am != 0 {
		move = (bm - am) / math.Abs(am)
	}
	worse := move
	if !lowerBetter {
		worse = -move
	}
	spread := 0.0
	if am != 0 {
		spread = (a3 - a1) / math.Abs(am)
	}
	head := fmt.Sprintf("%-28s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  move %+.1f%%  wins %d/%d",
		name, am, a1, a3, bm, b1, b3, 100*move, wins, pairs)
	if ms.Bound == 0 {
		return head + "  (no bound)", false
	}
	allBetter := true
	for _, y := range bv {
		for _, x := range av {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	verdict := "within bound"
	regressed := false
	switch {
	case spread > ms.Bound && !allBetter:
		verdict = fmt.Sprintf("unresolved (parent spread %.1f%% > bound %.0f%%)", 100*spread, 100*ms.Bound)
	case worse > ms.Bound:
		verdict = fmt.Sprintf("REGRESSION (worse by %.1f%% > bound %.0f%%)", 100*worse, 100*ms.Bound)
		regressed = true
	case worse < 0 && math.Abs(bm-am) > a3-a1 && pairs > 0 && 10*wins >= 9*pairs:
		verdict = "gain (wins ≥ 9/10 of pairs, move beyond the parent's spread)"
	}
	return head + "  " + verdict, regressed
}
