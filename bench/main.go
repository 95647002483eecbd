// Command bench is the repository's benchmark: four named workloads driven
// through the public byzcons.Session API, seven end-to-end metrics per
// workload, and — in a separate traced run — per-layer metrics from the
// harness's own spans, the program's public counters and timed calls into the
// layers' public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	t0 := time.Now()
	os.Exit(run(t0, os.Args[1:]))
}

func run(t0 time.Time, args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "-child", "--child":
			return childMain(t0, args[1:])
		case "compare":
			return compareMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and end with the one-line JSON result (default: all four)")
	seed := fs.Int64("seed", 1, "seed of value bytes, Config.Seed and the arrival schedule")
	seconds := fs.Int("seconds", 30, "measured seconds per workload, split into 3 passes")
	trace := fs.String("trace", "0", "1 or a file name: the traced per-layer run, writing a Chrome trace there (1 = out/trace.json)")
	out := fs.String("out", "", "write the full result as JSON to this file")
	quick := fs.Bool("quick", false, "smoke run: one 1 s pass per workload, no set-up probes")
	selfcheck := fs.Bool("selfcheck", false, "run two interleaved sets of full runs of this tree and compare them against the bounds")
	sets := fs.Int("sets", 3, "-selfcheck: runs per set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1|file] [-out file] [-quick] [-selfcheck [-sets n]] | bench compare old.json new.json")
		return 2
	}
	pl := Plan{Workloads: workloads, Seed: *seed, Passes: 3, Probes: 6, Warm: 2 * time.Second}
	pl.Window = time.Duration(*seconds) * time.Second / time.Duration(pl.Passes)
	if *quick {
		pl = quickPlan(*seed)
	}
	if *workload != "" {
		w, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		pl.Workloads = []Workload{w}
	}
	if *selfcheck {
		return selfcheckMain(pl, *sets)
	}
	tracePath := *trace
	switch tracePath {
	case "0", "":
		tracePath = ""
	case "1":
		tracePath = "out/trace.json"
	}
	pl.Traced = tracePath != ""

	res, err := pl.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(res)
	if pl.Traced {
		spans := make(map[string][]Span)
		for _, wr := range res.Workloads {
			for name, s := range wr.spans {
				spans[name] = s
			}
		}
		if err := writeChromeTrace(tracePath, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("trace written to %s\n", tracePath)
	}
	if *out != "" {
		data, _ := json.MarshalIndent(res, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	for _, wr := range res.Workloads {
		for _, v := range wr.Violations {
			fmt.Fprintf(os.Stderr, "bench: %s: GATE VIOLATED: %s\n", wr.Name, v)
		}
	}
	if *workload != "" {
		fmt.Println(contractLine(res))
	}
	if !res.Correct() {
		return 1
	}
	return 0
}

// quickPlan is the smoke run: every workload and every gate once, with
// windows too short to read the numbers.
func quickPlan(seed int64) Plan {
	return Plan{Workloads: workloads, Seed: seed, Passes: 1, Window: time.Second, Warm: 200 * time.Millisecond}
}

// contractLine is the one-line result of a single-workload run: every
// end-to-end metric, or in a traced run every per-layer metric.
func contractLine(res *Result) string {
	wr := res.Workloads[0]
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	if res.Traced {
		for _, def := range perLayer {
			metrics[def.Name] = mv{wr.Layers[def.Name], def.Unit}
		}
	} else {
		for _, def := range endToEnd {
			metrics[def.Name] = mv{wr.Metrics[def.Name].Value, def.Unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct(), "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
	})
	return string(line)
}

func printResult(res *Result) {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s; seed=%d, %d passes of %.1f s, %d set-up probes\n",
		res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.Platform,
		res.Seed, res.Passes, res.WindowS, res.Probes)
	for _, wr := range res.Workloads {
		fmt.Printf("\n%s: attempted=%d decided=%d failed=%d failed_share=%g", wr.Name, wr.Attempted, wr.Decided, wr.Failed, wr.FailedShare)
		if !res.Traced {
			fmt.Printf(" (latency: %d samples over %d cycles)\n", wr.Samples, wr.Cycles)
			for _, def := range endToEnd {
				m := wr.Metrics[def.Name]
				fmt.Printf("  %-22s %14.4f %-4s %-6s bound %4.1f%%  passes %s\n", def.Name, m.Value, def.Unit,
					def.Better, 100*def.Bound, fmtList(m.Passes))
			}
			continue
		}
		fmt.Println()
		for _, def := range perLayer {
			fmt.Printf("  %-38s %14.4f %-6s %s\n", def.Name, wr.Layers[def.Name], def.Unit, layerNotes[def.Name])
		}
	}
	fmt.Println()
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
