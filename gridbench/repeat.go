package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs each named workload k times, with seeds seed..seed+k-1,
// each run in a fresh process of this same binary, one after another. It
// prints every run's result line, then per metric the median, the
// quartiles (Python's statistics.quantiles(values, n=4)) and their spread
// as a share of the median — the figures the bounds in BENCHMARK.json are
// set from.
func repeatRuns(workload string, seed int64, seconds float64, trace, k int) error {
	names := []string{workload}
	if workload == "all" {
		names = []string{"control", "directory", "middleware"}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		values := map[string][]float64{}
		units := map[string]string{}
		fails := map[string]bool{}
		for i := 0; i < k; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			line := lastLine(out)
			fmt.Printf("%s seed=%d %s\n", name, s, line)
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			fails[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
		}
		fmt.Printf("%s: %d runs, failed/attempted seen: %s\n", name, k, strings.Join(sortedKeys(fails), " "))
		fmt.Printf("  %-34s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, m := range sortedKeys(values) {
			q1, med, q3 := quartiles(values[m])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-34s %14.6g %14.6g %14.6g %7.1f%%  %s\n", m, q1, med, q3, 100*spread, units[m])
		}
	}
	return nil
}

// quartiles returns the three cut points Python's statistics.quantiles
// (default "exclusive" method, n=4) returns for v.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(j int) float64 {
		// Position j*(n+1)/4 on 1-based ranks, clamped to the data.
		m := float64(j) * float64(n+1) / 4
		i := int(m)
		frac := m - float64(i)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return cut(1), cut(2), cut(3)
}

func lastLine(out []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
