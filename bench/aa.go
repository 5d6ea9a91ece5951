package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method), which is what the benchmark's acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// side summarises one side's runs of one metric.
type side struct{ median, q1, q3 float64 }

func summarise(xs []float64) side {
	q1, q3 := quartiles(xs)
	return side{median(xs), q1, q3}
}

// spread is the interquartile range as a share of the median.
func (s side) spread() float64 { return (s.q3 - s.q1) / s.median }

// runAA runs every workload n times as side A and n times as side B of
// this same binary, each run a fresh process as the driver starts it,
// interleaved A B B A so drift hits both sides alike. Run k of either
// side uses seed base+k. It prints, per workload and metric, both
// medians and quartiles, each side's spread, the gap between the
// medians and the bound, and fails when a gap exceeds its bound.
func runAA(n int, opt options) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs a side")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	once := func(workload string, seed int64) (map[string]value, error) {
		cmd := exec.Command(exe,
			"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
			"-scale", opt.scale, "-out", opt.out)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.Bytes())
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var r report
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		return r.Metrics, nil
	}

	worst := ""
	fmt.Printf("%-13s %-10s %34s %34s %7s %7s\n", "workload", "metric", "A median [q1, q3] spread", "B median [q1, q3] spread", "gap", "bound")
	for _, w := range workloads {
		runs := [2]map[string][]float64{{}, {}}
		for k := 0; k < n; k++ {
			order := [2]int{0, 1}
			if k%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				got, err := once(w.name, opt.seed+int64(k))
				if err != nil {
					return err
				}
				for name, v := range got {
					runs[s][name] = append(runs[s][name], v.Value)
				}
			}
		}
		for _, m := range endToEnd {
			a, b := summarise(runs[0][m.name]), summarise(runs[1][m.name])
			gap := math.Abs(b.median-a.median) / a.median
			fmt.Printf("%-13s %-10s %12.5g [%8.5g, %8.5g] %5.2f%% %12.5g [%8.5g, %8.5g] %5.2f%% %6.2f%% %6.0f%%\n",
				w.name, m.name, a.median, a.q1, a.q3, 100*a.spread(), b.median, b.q1, b.q3, 100*b.spread(), 100*gap, 100*bounds[m.name])
			if gap > bounds[m.name] {
				worst = fmt.Sprintf("%s %s: gap %.2f%% exceeds the bound %.0f%%", w.name, m.name, 100*gap, 100*bounds[m.name])
			}
		}
	}
	if worst != "" {
		return fmt.Errorf("%s", worst)
	}
	return nil
}
