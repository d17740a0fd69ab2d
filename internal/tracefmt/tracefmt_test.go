package tracefmt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/trace"
)

func sampleEvents() []trace.Event {
	return []trace.Event{
		{Step: 0, Proc: 0, Kind: memmodel.OpRead, Var: 1, Before: 7, RMR: true},
		{Proc: 1, SectionChange: true, Section: memmodel.SecCS},
		{Step: 1, Proc: 1, Kind: memmodel.OpWrite, Var: 1, Arg: 9, RMR: true},
		{Step: 2, Proc: 2, Kind: memmodel.OpCAS, Var: 0, CASExpected: 0, Arg: 5, Swapped: true},
		{Step: 3, Proc: 2, Kind: memmodel.OpCAS, Var: 0, CASExpected: 0, Arg: 5, Swapped: false, RMR: true},
		{Step: 4, Proc: 0, Kind: memmodel.OpFetchAdd, Var: 2, Arg: 3, After: 3},
		{Step: 5, Proc: 1, Kind: memmodel.OpAwait, Var: 1, Before: 9},
	}
}

func TestRenderBasics(t *testing.T) {
	out := Render(sampleEvents(), Options{})
	for _, want := range []string{
		"p0", "p1", "p2",
		"R v1=7*",
		"W v1:=9*",
		"CAS! v0 0->5",
		"CAS~ v0 0->5*",
		"F&A v2+=3=3",
		"aw v1=9",
		"[p1 -> cs]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderVarNames(t *testing.T) {
	out := Render(sampleEvents(), Options{VarNames: []string{"RSIG", "C[0]"}})
	if !strings.Contains(out, "R C[0]=7*") || !strings.Contains(out, "CAS! RSIG") {
		t.Errorf("variable names not applied:\n%s", out)
	}
	// Past the names a variable is v<N>; RSIG is decoded as a signal word.
	seq, op := memmodel.UnpackSig(5)
	if want := fmt.Sprintf("CAS! RSIG <0,0>-><%d,%d>", seq, op); !strings.Contains(out, want) || !strings.Contains(out, "F&A v2+=3=3") {
		t.Errorf("output missing %q or the unnamed v2:\n%s", want, out)
	}
}

func TestRenderHideSections(t *testing.T) {
	out := Render(sampleEvents(), Options{HideSections: true})
	if strings.Contains(out, "->") && strings.Contains(out, "[p1") {
		t.Errorf("sections not hidden:\n%s", out)
	}
}

func TestRenderTruncation(t *testing.T) {
	events := make([]trace.Event, 50)
	for i := range events {
		events[i] = trace.Event{Step: i, Proc: 0, Kind: memmodel.OpRead, Var: 0}
	}
	out := Render(events, Options{MaxEvents: 10})
	if !strings.Contains(out, "40 earlier events elided") {
		t.Errorf("missing truncation notice:\n%s", out)
	}
	if strings.Contains(out, "\n    0 ") {
		t.Errorf("early events not elided:\n%s", out)
	}
	if !strings.Contains(out, "   49 ") {
		t.Errorf("tail missing:\n%s", out)
	}
}

func TestRenderLaneAlignment(t *testing.T) {
	out := Render(sampleEvents(), Options{})
	lines := strings.Split(out, "\n")
	// All p2 events appear in the third lane: column offset 6 + 2*24.
	for _, line := range lines {
		if strings.Contains(line, "CAS") {
			idx := strings.Index(line, "CAS")
			if idx != 6+2*24 {
				t.Errorf("CAS cell at column %d, want %d: %q", idx, 6+2*24, line)
			}
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	out := Render(nil, Options{NumProcs: 2})
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p1") {
		t.Errorf("empty render lacks header:\n%s", out)
	}
}
