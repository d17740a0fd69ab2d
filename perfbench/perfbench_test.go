package main

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lockd"
	"repro/internal/lockd/durable"
	"repro/internal/recoverable"
	"repro/internal/sched"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n         int
		top, want float64
	}{
		{0, 99.9, 100}, {1, 99.9, 100}, {19, 99.9, 100}, // fewer than ten samples beyond any percentile
		{20, 99.9, 50}, {99, 99.9, 50}, {100, 99.9, 90}, {999, 99.9, 90}, {1000, 99.9, 99},
		{9999, 99.9, 99}, {10000, 99.9, 99.9}, {1000000, 99.9, 99.9}, // the ladder stops at p99.9
		{19, 90, 100}, {20, 90, 50}, {1000, 90, 90}, {1000000, 90, 90}, // a lower top caps it
	} {
		if got := tailPercentile(tc.n, tc.top); got != tc.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", tc.n, tc.top, got, tc.want)
		}
	}
	// The chosen percentile leaves at least ten samples strictly above it.
	for _, n := range []int{20, 57, 100, 345, 1000, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p := tailPercentile(n, 99.9)
		if beyond := n - 1 - int(percentile(xs, p)); beyond < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", n, p, beyond)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 100); got != 3 {
		t.Errorf("p100 of {3,1,2} = %g, want the maximum", got)
	}
}

// The scheduler wrapper must not change what the sweeps compute, and must
// not turn round-robin into an op-aware policy.
func TestCountingSchedKeepsSweepDigest(t *testing.T) {
	var s sched.Scheduler = &countingSched{inner: sched.NewRoundRobin()}
	if _, ok := s.(sched.OpAware); ok {
		t.Fatal("countingSched implements sched.OpAware")
	}
	plain, rows, err := sweepOp(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool := &schedPool{timed: true}
	tr := newTracer()
	wrapped, wrows, err := sweepOp(pool, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain != wrapped || rows != wrows {
		t.Fatalf("digest without wrapper %s (%d rows), with wrapper %s (%d rows)", plain, rows, wrapped, wrows)
	}
	if err := checkSweep(plain, rows); err != nil {
		t.Fatal(err)
	}
	if tr.count("sched.Next") == 0 {
		t.Fatal("wrapper counted no scheduler picks")
	}
}

func TestCountingConnCounts(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	capture := &lineCapture{}
	cc := &countingConn{Conn: a, capture: capture}
	go func() {
		buf := make([]byte, 64)
		for total := 0; total < 21; {
			n, err := b.Read(buf)
			if err != nil {
				return
			}
			total += n
		}
		b.Write([]byte("{\"seq\":1,\"ok\":true}\n")) //nolint:errcheck // the reader below fails the test
	}()
	for _, line := range []string{"{\"seq\":1,\"op\":\"a\"}\n", "x\n"} {
		if _, err := cc.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64)
	n, err := cc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 2 {
		t.Errorf("writes = %d, want 2", got)
	}
	if got := cc.wbytes.Load(); got != 21 {
		t.Errorf("bytes written = %d, want 21", got)
	}
	if got := cc.rbytes.Load(); got != int64(n) || n != 20 {
		t.Errorf("bytes read = %d (read returned %d), want 20", got, n)
	}
	if _, _, _, ok := cc.lastCall(); !ok {
		t.Error("lastCall has no answered request after a write and a read")
	}
	if len(capture.lines) != 2 || string(capture.lines[1]) != "x\n" {
		t.Errorf("captured %q", capture.lines)
	}
}

func TestLedger(t *testing.T) {
	lg := newLedger(3)
	tok := func(c uint64) uint64 { return durable.MakeToken(3, c) }
	for _, c := range []uint64{1, 2, 5} {
		if err := lg.observe("k", lockd.ModeWrite, tok(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.observe("k", lockd.ModeRead, 0); err != nil {
		t.Fatalf("read grant: %v", err)
	}
	if err := lg.observe("k", lockd.ModeWrite, tok(5)); !errors.Is(err, errGate) {
		t.Errorf("repeated token: got %v, want a gate error", err)
	}
	if err := lg.observe("j", lockd.ModeWrite, durable.MakeToken(2, 9)); !errors.Is(err, errGate) {
		t.Errorf("token from an earlier epoch: got %v, want a gate error", err)
	}
	if got := lg.acquired.Load(); got != 6 {
		t.Errorf("acquired = %d, want 6", got)
	}
}

// Inputs come from the seed alone; the held-out seed gives a stream of
// the same shape as the tuning seeds.
func TestSeededInputs(t *testing.T) {
	if !reflect.DeepEqual(genMixed(1), genMixed(1)) {
		t.Fatal("genMixed is not a function of its seed")
	}
	if reflect.DeepEqual(genMixed(1), genMixed(heldOutSeed)) {
		t.Fatal("the held-out seed gives the same stream as seed 1")
	}
	writes, n := 0, 0
	for _, stream := range genMixed(heldOutSeed) {
		for _, op := range stream {
			n++
			if op.mode == lockd.ModeWrite {
				writes++
			}
		}
	}
	if share := float64(writes) / float64(n); share < 0.09 || share > 0.11 {
		t.Errorf("write share %.3f, want about %.2f", share, mixedWriteP)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var jsonNames []string
	for _, w := range spec.Workloads {
		jsonNames = append(jsonNames, w.Name)
	}
	if !reflect.DeepEqual(names, jsonNames) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, jsonNames)
	}
	pairs := func(ms []struct{ name, unit string }) [][2]string {
		var out [][2]string
		for _, m := range ms {
			out = append(out, [2]string{m.name, m.unit})
		}
		return out
	}
	jsonPairs := func(ms []struct{ Name, Unit string }) [][2]string {
		var out [][2]string
		for _, m := range ms {
			out = append(out, [2]string{m.Name, m.Unit})
		}
		return out
	}
	if got, want := jsonPairs(spec.EndToEnd), pairs(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", got, want)
	}
	if got, want := jsonPairs(spec.PerLayer), pairs(layerMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", got, want)
	}
}

// A run whose set-up fails still prints a result line: not correct, one
// failed operation, and every metric of its kind.
func TestFailedResult(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := failedResult(&env{traced: traced})
		if res.Correct || res.Attempted != 1 || res.Failed != 1 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d, want false 1 1", traced, res.Correct, res.Attempted, res.Failed)
		}
		names := endToEnd
		if traced {
			names = layerMetrics
		}
		if len(res.Metrics) != len(names) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(names))
		}
		for _, m := range names {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
			}
		}
	}
}

// The simulator set-up stands up every execution the workloads run.
func TestStandUp(t *testing.T) {
	if err := standUp(core.New(core.FLog), advN, 1); err != nil {
		t.Fatal(err)
	}
	if err := standUp(recoverable.NewAF(core.FLog), sweepScenario.NReaders, sweepScenario.NWriters); err != nil {
		t.Fatal(err)
	}
}
