package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// worsening returns by what share of a the value b is worse than a,
// given which direction is better; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = 1e-12 // anything against zero is a full-scale change
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets holds result set b to set a: every end-to-end metric of b
// may be worse than a's by at most its bound, and every exact counter
// present in both must be equal. It writes one row per (workload,
// metric) and reports whether the sets agree.
func compareSets(w io.Writer, a, b *resultSet) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tB/A\tbound\tverdict")
	agree := true
	for _, name := range sortedKeys(a.Workloads) {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tMISSING in B\n", name)
			agree = false
			continue
		}
		row := func(d metricDef, gated bool) {
			va, oka := ra.Metrics[d.Name]
			vb, okb := rb.Metrics[d.Name]
			if !oka || !okb {
				return
			}
			ratio := "-"
			if va.Value != 0 {
				ratio = fmt.Sprintf("%.4f", vb.Value/va.Value)
			}
			verdict, bound := "ok", "-"
			switch {
			case d.Exact:
				bound = "exact"
				if va.Value != vb.Value {
					verdict = "DIFFERS"
				}
			case gated:
				bound = fmt.Sprintf("%.3f", d.Bound)
				if worse := worsening(d, va.Value, vb.Value); worse > d.Bound {
					verdict = fmt.Sprintf("WORSE by %.3f", worse)
				}
			default:
				verdict = "-"
			}
			if verdict != "ok" && verdict != "-" {
				agree = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", name, d.Name, va.Value, vb.Value, ratio, bound, verdict)
		}
		for _, d := range endToEnd {
			row(d, true)
		}
		row(failedShare, true)
		for _, d := range perLayer {
			row(d, false)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\t-\t0\tFAILED\n", name, ra.Failed, rb.Failed)
			agree = false
		}
	}
	for _, name := range sortedKeys(b.Workloads) {
		if a.Workloads[name] == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tMISSING in A\n", name)
			agree = false
		}
	}
	if err := tw.Flush(); err != nil {
		return false
	}
	return agree
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(w, a, b), nil
}
