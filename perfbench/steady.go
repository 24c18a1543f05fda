package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs the workload k times, each in its own child process
// with seeds seed, seed+1, ..., and prints per metric the median, the
// quartiles and the interquartile spread relative to the median.
func steadiness(k int, args []string) int {
	var rest []string
	seed := uint64(1)
	for i := 0; i < len(args); i++ {
		name, val, hasVal := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if name != "steady" && name != "seed" {
			rest = append(rest, args[i])
			continue
		}
		if !hasVal && i+1 < len(args) {
			i++
			val = args[i]
		}
		if name == "seed" {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: bad seed %q\n", val)
				return 2
			}
			seed = n
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []float64
	for i := 0; i < k; i++ {
		cmd := exec.Command(os.Args[0], append(rest, "--seed", strconv.FormatUint(seed+uint64(i), 10))...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run %d reported incorrect output\n", i)
			return 1
		}
		shares = append(shares, ratio(float64(res.Failed), float64(res.Attempted)))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-44s %-6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, n := range names {
		q1, q2, q3 := quartiles(values[n])
		fmt.Printf("%-44s %-6s %14.6g %14.6g %14.6g %7.2f%%\n", n, units[n], q2, q1, q3, 100*ratio(q3-q1, q2))
	}
	fmt.Println("values per run:")
	for _, n := range names {
		fmt.Printf("%-44s %.4g\n", n, values[n])
	}
	fmt.Printf("failed share per run: %v\n", shares)
	return 0
}
