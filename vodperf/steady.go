package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs each workload n times, with seeds o.seed … o.seed+n-1,
// and prints every metric's median, quartiles and spread (the distance
// between the quartiles as a share of the median) against its bound in
// BENCHMARK.json. A spread under a third of the bound is reported as
// steady; setup_s is held to its median alone.
func runSteady(o options, n, trace int) error {
	raw, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	seconds := o.seconds
	if seconds == 0 {
		seconds = bench.RunSeconds
	}
	var workloads []string
	for _, w := range bench.Workloads {
		if o.workload == "" || o.workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no workload %q in BENCHMARK.json", o.workload)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("# %d runs of %ds per workload, seeds %d..%d, trace %d, %s, nproc %d\n",
		n, seconds, o.seed, o.seed+uint64(n)-1, trace, cpuModel(), runtime.NumCPU())
	for _, w := range workloads {
		values := map[string][]float64{}
		units := map[string]string{}
		var failShares []string
		wall := time.Now()
		for i := 0; i < n; i++ {
			seed := o.seed + uint64(i)
			cmd := exec.Command(self, "-root", o.root, "-vodserve", o.vodserve, "-workload", w,
				"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: output checks failed", w, seed)
			}
			failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Printf("\n## %s (%.0fs wall for %d runs; failed/attempted %s)\n\n", w, time.Since(wall).Seconds(), n, strings.Join(failShares, " "))
		fmt.Println("| metric | unit | median | Q1 | Q3 | spread | bound | verdict | runs |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			q1, med, q3 := quartiles(values[name])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			bound, hasBound := bounds[name]
			verdict, boundCol := "", "—"
			if hasBound {
				boundCol = fmt.Sprintf("%.2f", bound)
				switch {
				case name == "setup_s":
					verdict = "median only"
				case spread <= bound/3:
					verdict = "steady"
				case spread <= bound:
					verdict = "within bound"
				default:
					verdict = "UNSTEADY"
				}
			}
			runs := make([]string, len(values[name]))
			for i, v := range values[name] {
				runs[i] = strconv.FormatFloat(v, 'g', 4, 64)
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.3f | %s | %s | %s |\n",
				name, units[name], med, q1, q3, spread, boundCol, verdict, strings.Join(runs, " "))
		}
	}
	return nil
}

// cpuModel names the host's processor for the report header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if k, v, ok := strings.Cut(string(line), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}
