package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Row compares one (workload, metric) between a base A and a candidate B.
type Row struct {
	Workload string
	Def      MetricDef
	A, B     float64 // centres: a file's value, or a set's median
	// SpreadA and SpreadB are the interquartile ranges of the samples behind A
	// and B, as shares of their medians.
	SpreadA, SpreadB float64
}

// Change is (B-A)/A: the ratio's base is A.
func (r Row) Change() float64 { return ratio(r.B-r.A, r.A) }

// Verdict is "unresolved" where either side's own spread is wider than the
// bound, "within" where B is inside the bound of A, and otherwise "better"
// or "worse" by the metric's direction.
func (r Row) Verdict() string {
	ch := r.Change()
	switch {
	case math.Max(r.SpreadA, r.SpreadB) > r.Def.Bound:
		return "unresolved"
	case math.Abs(ch) <= r.Def.Bound:
		return "within"
	case (ch < 0) == (r.Def.Better == "lower"):
		return "better"
	}
	return "worse"
}

func printRows(rows []Row) {
	fmt.Printf("%-20s %-22s %14s %8s %14s %8s %9s %7s  %s\n", "workload", "metric", "A", "iqr A", "B", "iqr B", "(B-A)/A", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-20s %-22s %14.4f %7.2f%% %14.4f %7.2f%% %+8.2f%% %6.1f%%  %s\n", r.Workload, r.Def.Name,
			r.A, 100*r.SpreadA, r.B, 100*r.SpreadB, 100*r.Change(), 100*r.Def.Bound, r.Verdict())
	}
}

func loadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if res.Schema != 1 || res.Traced {
		return nil, fmt.Errorf("%s: not an end-to-end result of schema 1", path)
	}
	return &res, nil
}

// compareFiles pairs the (workload, metric) cells of two results. A file's
// spread is that of its passes.
func compareFiles(a, b *Result) []Row {
	var rows []Row
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, def := range endToEnd {
			ma, mb := wa.Metrics[def.Name], wb.Metrics[def.Name]
			rows = append(rows, Row{Workload: wa.Name, Def: def, A: ma.Value, B: mb.Value,
				SpreadA: spread(ma.Passes), SpreadB: spread(mb.Passes)})
		}
	}
	return rows
}

// compareMain is `bench compare old.json new.json`; it exits 1 if any metric
// is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return 2
	}
	var loaded [2]*Result
	for i, path := range args {
		res, err := loadResult(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		loaded[i] = res
	}
	rows := compareFiles(loaded[0], loaded[1])
	fmt.Printf("A = %s, B = %s\n", args[0], args[1])
	printRows(rows)
	for _, r := range rows {
		if r.Verdict() == "worse" {
			return 1
		}
	}
	return 0
}

// compareSets pairs two sets of runs: a cell's centre is the median of its
// set's values, its spread their interquartile range.
func compareSets(a, b []*Result) []Row {
	col := func(set []*Result, workload, metric string) []float64 {
		var xs []float64
		for _, res := range set {
			xs = append(xs, res.workload(workload).Metrics[metric].Value)
		}
		return xs
	}
	var rows []Row
	for _, w := range a[0].Workloads {
		for _, def := range endToEnd {
			xa, xb := col(a, w.Name, def.Name), col(b, w.Name, def.Name)
			rows = append(rows, Row{Workload: w.Name, Def: def, A: median(xa), B: median(xb),
				SpreadA: spread(xa), SpreadB: spread(xb)})
		}
	}
	return rows
}

// selfcheckMain runs the same tree as two sets, interleaved A B A B, and
// fails if any (workload, metric) differs between the sets by more than its
// bound: a benchmark that cannot agree with itself cannot judge a change.
func selfcheckMain(pl Plan, sets int) int {
	var a, b []*Result
	for i := 0; i < 2*sets; i++ {
		res, err := pl.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench -selfcheck:", err)
			return 1
		}
		if !res.Correct() {
			printResult(res)
			fmt.Fprintln(os.Stderr, "bench -selfcheck: a run broke a correctness gate")
			return 1
		}
		if i%2 == 0 {
			a = append(a, res)
		} else {
			b = append(b, res)
		}
		fmt.Fprintf(os.Stderr, "selfcheck: run %d of %d done\n", i+1, 2*sets)
	}
	rows := compareSets(a, b)
	fmt.Printf("selfcheck: %d runs per set, interleaved A B; centre = median of the set, iqr = interquartile range / median\n", sets)
	printRows(rows)
	bad := 0
	for _, r := range rows {
		if math.Abs(r.Change()) > r.Def.Bound {
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: FAILED, %d of %d pairs differ by more than their bound\n", bad, len(rows))
		return 1
	}
	fmt.Printf("selfcheck: passed, all %d pairs agree within their bounds\n", len(rows))
	return 0
}
