// Package tracefmt renders simulator traces as human-readable,
// lane-per-process timelines. rwtrace prints these for seeded runs and
// replayed choice paths (a mutual-exclusion violation E16 finds is much
// easier to understand as a timeline than as a choice vector), and they
// make good debugging output for any staged construction.
//
// Example output (one row per event, one column per process):
//
//	step  p0              p1              p2
//	----------------------------------------------
//	   0  R C[0].0=0*
//	   1                  W flag=1*
//	      [p1 -> cs]
//	   2                                  CAS! RSIG=3*
//
// Cell notation: R read, W write, CAS! successful CAS, CAS~ failed CAS,
// F&A fetch-and-add, aw await re-check; a trailing * marks an RMR;
// [pN -> section] lines are section transitions.
package tracefmt

import (
	"fmt"
	"strings"

	"repro/internal/memmodel"
	"repro/internal/trace"
)

// Options configures rendering.
type Options struct {
	// NumProcs is the number of process lanes. Zero means infer from the
	// events.
	NumProcs int
	// VarNames names the variables by index (spec.Report.VarNames); a
	// variable past its end prints as "v<N>". Values print in decimal,
	// except the packed words named like A_f's: a counter node (C[..],
	// W[..]) prints its sum and a signal word (RSIG, WSIG..) its
	// <seq,op> pair.
	VarNames []string
	// HideSections suppresses section-transition rows.
	HideSections bool
	// MaxEvents truncates long traces (0 = no limit), keeping the tail,
	// which is where violations manifest.
	MaxEvents int
}

// Render formats the events as a timeline.
func Render(events []trace.Event, opts Options) string {
	nProcs := opts.NumProcs
	for _, e := range events {
		if e.Proc+1 > nProcs {
			nProcs = e.Proc + 1
		}
	}
	truncated := 0
	if opts.MaxEvents > 0 && len(events) > opts.MaxEvents {
		truncated = len(events) - opts.MaxEvents
		events = events[truncated:]
	}

	const laneWidth = 24
	var b strings.Builder
	// Header.
	b.WriteString("step  ")
	for p := 0; p < nProcs; p++ {
		fmt.Fprintf(&b, "%-*s", laneWidth, fmt.Sprintf("p%d", p))
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 6+laneWidth*nProcs))
	b.WriteByte('\n')
	if truncated > 0 {
		fmt.Fprintf(&b, "      ... %d earlier events elided ...\n", truncated)
	}

	for _, e := range events {
		if e.SectionChange {
			if !opts.HideSections {
				fmt.Fprintf(&b, "      [p%d -> %s]\n", e.Proc, e.Section)
			}
			continue
		}
		fmt.Fprintf(&b, "%5d ", e.Step)
		for p := 0; p < nProcs; p++ {
			cell := ""
			if p == e.Proc {
				cell = cellFor(e, opts.VarNames)
			}
			fmt.Fprintf(&b, "%-*s", laneWidth, cell)
		}
		b.WriteString("\n")
	}
	return strings.TrimRight(b.String(), " \n") + "\n"
}

// cellFor renders one event's cell, naming its variable from names.
func cellFor(e trace.Event, names []string) string {
	name := fmt.Sprintf("v%d", e.Var)
	if int(e.Var) < len(names) {
		name = names[e.Var]
	}
	val := func(x uint64) string {
		switch {
		case strings.HasPrefix(name, "C[") || strings.HasPrefix(name, "W["):
			return fmt.Sprintf("%d", memmodel.VerSumSum(x))
		case name == "RSIG" || strings.HasPrefix(name, "WSIG"):
			seq, op := memmodel.UnpackSig(x)
			return fmt.Sprintf("<%d,%d>", seq, op)
		default:
			return fmt.Sprintf("%d", x)
		}
	}
	rmr := ""
	if e.RMR {
		rmr = "*"
	}
	switch e.Kind {
	case memmodel.OpRead:
		return fmt.Sprintf("R %s=%s%s", name, val(e.Before), rmr)
	case memmodel.OpWrite:
		return fmt.Sprintf("W %s:=%s%s", name, val(e.Arg), rmr)
	case memmodel.OpCAS:
		mark := "~"
		if e.Swapped {
			mark = "!"
		}
		return fmt.Sprintf("CAS%s %s %s->%s%s", mark, name, val(e.CASExpected), val(e.Arg), rmr)
	case memmodel.OpFetchAdd:
		return fmt.Sprintf("F&A %s+=%d=%s%s", name, int64(e.Arg), val(e.After), rmr)
	case memmodel.OpAwait:
		return fmt.Sprintf("aw %s=%s%s", name, val(e.Before), rmr)
	default:
		return fmt.Sprintf("? %s%s", name, rmr)
	}
}
