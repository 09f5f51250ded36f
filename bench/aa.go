package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the A/A comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs two interleaved sets of n untraced runs of this very
// binary per workload (A1 B1 A2 B2 ..., run i of both sets on seed i).
// For every end-to-end metric it prints both medians, each set's spread
// (interquartile range over its median) and how much worse B's median
// is than A's, and judges that shift against the metric's bound in
// BENCHMARK.json. The benchmark's driver bounds the spread as well, over
// ten runs a set; over fewer the quartiles are nearly the extremes, so
// here the spread is shown and not judged.
func runAA(n int, seconds float64) error {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	allPass := true
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		failed := 0
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runSelf(self, w.name, int64(i+1), seconds)
				if err != nil {
					return fmt.Errorf("%s, set %c, run %d: %w", w.name, 'A'+s, i+1, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s, set %c, run %d: an output check failed", w.name, 'A'+s, i+1)
				}
				failed += res.Failed
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("%s (%d runs per set, %d events failed)\n", w.name, n, failed)
		fmt.Printf("  %-16s %-5s %12s %12s %8s %8s %8s %6s  %s\n",
			"metric", "unit", "median A", "median B", "iqr A", "iqr B", "B vs A", "bound", "")
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // positive when B is worse than A
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrShare(a), iqrShare(b)
			verdict := "PASS"
			if worse > m.Bound {
				verdict, allPass = "FAIL", false
			}
			fmt.Printf("  %-16s %-5s %12.3f %12.3f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, ma, mb, sa*100, sb*100, worse*100, m.Bound*100, verdict)
		}
	}
	if !allPass {
		return fmt.Errorf("two sets of runs of the same code differ by more than the benchmark's bounds")
	}
	return nil
}

// runSelf runs one untraced run in a child process and parses the last
// line of its output.
func runSelf(self, workload string, seed int64, seconds float64) (*resultLine, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// iqrShare is the distance between the first and third quartile of xs
// as a share of their median, with quartiles as Python's
// statistics.quantiles(xs, n=4) computes them.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}
