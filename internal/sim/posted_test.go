package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// postedOracleWant holds, per workload and protocol, the digest of the
// live executions of seeds 1 to postedOracleSeeds, as the simulator
// produced them when every operation, writes included, waited for the
// runner's reply. A posted write must change none of them.
var postedOracleWant = map[string]string{
	"af-log/write-through":      "c6652cf6e1f5285588c63c808356d92bce07a84e5e3f79647d71ffb16c22ca62",
	"af-log/write-back":         "02fef4dde00772f9d710a7698b048c50173a6526cdac94c38328ed6f88c35e75",
	"af-log/dsm":                "89625d5063c0ac222b8b44f089c9a4feb85b2d29872590dabd1a995e47a0ec0d",
	"af-one/write-through":      "bf818e7e2fa4103ff062620453ed15c2ca232bcba192739c5a84fbfd842df1ef",
	"af-one/write-back":         "3fad8c5d223cc70c1295809ddebe293768bba0c58b69b2e18b15aa6e86ca862d",
	"af-one/dsm":                "85f6998f3a4023370e3e09524911d0917ef4c8bf0bb8b3aca8a5545fc08cf0d9",
	"centralized/write-through": "fbf0bafd65ff7d702b8e329101f6a43287ff2a9803c7736dc67dd6badf4dbd01",
	"centralized/write-back":    "e46a65e4fb8b76aef36b63eefd185132cbd3716b72778178b677c58f29691e5b",
	"centralized/dsm":           "c3113f7ad45882321716de682e8bd6cad65be09b54a15bd0beb999ca270eb7db",
	"queue-rw/write-through":    "742fed9f7ced9b73c2464d8cc46f0eeface564f29e594d04675a45f1dd06abd8",
	"queue-rw/write-back":       "9320d734f707407d722f7765323912a12c4527df4776e39202e7232b05aec82d",
	"queue-rw/dsm":              "0cb5bda8fecde8c97f42626bab3674f310d86ad7f0f3f3a6ab0fac231a40ab0e",
	"multi-spin/write-through":  "eeffd7e715380804f455ea18f84ce470bd791ab93d644197541c592c586b6d6a",
	"multi-spin/write-back":     "6acf6123fa77cc4f54433af446ced59612b3d1d1bd7be3e44c58444981a0783e",
	"multi-spin/dsm":            "539483ee7070b125668fe86d012c1229510c69f65729f8c0569bdc401bc52a98",
}

// postedPassagesWant holds, per lock workload, the digest of the Go-side
// passage counts the driver read after every action of the same
// executions, recorded on the same simulator; they are the same under
// every protocol. A process counts a passage right after its remainder
// marker, so a marker that let the program run past a write the runner
// had not executed yet shows here.
var postedPassagesWant = map[string]string{
	"af-log":      "6705e495c303ffaa48bccea8450f7421cb68a679eb24b8d938a224403382ea23",
	"af-one":      "466de53c806522bf3c86c5d9077960597aabb965c45d345e438ef46b6772b9ff",
	"centralized": "da8d2b2e15201bc25096cd2efe0bd583017412727595addc1bc0fe5c459b6fa7",
	"queue-rw":    "d4257eea096a0d5c70c67e8d7dbb0f26d7c8ad2171764079cb348f98ba0082bb",
}

const postedOracleSeeds = 20

// digestRun adds everything an execution shows to h, except its handoff
// count: every trace event, every incarnation's account, the step errors,
// the final memory, the Done/Terminated state, and the step and replayed
// counts.
func digestRun(h hash.Hash, run oracleRun) {
	for _, e := range run.events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	for _, accts := range run.accounts {
		for _, a := range accts {
			fmt.Fprintf(h, "%+v\n", *a)
		}
	}
	fmt.Fprintf(h, "%q %v %v %v %d %d\n", run.stepErrs, run.mem, run.done, run.term, run.counts.Steps, run.counts.Replayed)
}

// TestPostedWritesMatchParent is the independent oracle for posted writes.
// It digests the seeded live executions of TestRunAheadMatchesLive's
// generator (lock algorithms and a multi-await workload, under every
// protocol, with crashes, restarts, stalls and barrier releases), and
// separately the lock programs' Go-side passage counts, and compares both
// with digests recorded before writes were posted.
func TestPostedWritesMatchParent(t *testing.T) {
	workloads := []indexWorkload{
		lockWorkload("af-log", func() memmodel.Algorithm { return core.New(core.FLog) }, 2, 2),
		lockWorkload("af-one", func() memmodel.Algorithm { return core.New(core.FOne) }, 2, 1),
		lockWorkload("centralized", func() memmodel.Algorithm { return baseline.NewCentralized() }, 2, 1),
		lockWorkload("queue-rw", func() memmodel.Algorithm { return baseline.NewQueueRW() }, 2, 2),
		multiSpinWorkload,
	}
	for _, wl := range workloads {
		for _, proto := range []Protocol{WriteThrough, WriteBack, DSM} {
			name := fmt.Sprintf("%s/%s", wl.name, proto)
			t.Run(name, func(t *testing.T) {
				h, hp := sha256.New(), sha256.New()
				completed := 0
				for seed := int64(1); seed <= postedOracleSeeds; seed++ {
					run := oracleExecution(t, wl, proto, seed, -1, nil, nil)
					digestRun(h, run)
					fmt.Fprintln(hp, run.passages)
					for _, c := range wl.passages {
						completed += c
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != postedOracleWant[name] {
					t.Errorf("digest %s, want %s", got, postedOracleWant[name])
				}
				if wl.passages == nil {
					return
				}
				if completed == 0 {
					t.Fatal("no process completed a passage; the passage digest is vacuous")
				}
				if got := hex.EncodeToString(hp.Sum(nil)); got != postedPassagesWant[wl.name] {
					t.Errorf("passage digest %s, want %s", got, postedPassagesWant[wl.name])
				}
			})
		}
	}
}

// TestFirstWriteHandsOff: a process whose first request is a Write is
// poised at it after Start, having handed off once; its second Write is
// posted, so the execution takes a handoff fewer than it has operations.
func TestFirstWriteHandsOff(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Write(v, 1)
		p.Write(v, 2)
		p.Read(v)
	})
	mustOK(t, r.Start())
	ps := r.procs[0]
	if ps.status != statusPoised || ps.pending.kind != memmodel.OpWrite || ps.pending.arg != 1 || ps.next != len(ps.outbox) {
		t.Fatalf("after Start: status %d, pending %+v, %d requests unread; want poised at the first write", ps.status, ps.pending, len(ps.outbox)-ps.next)
	}
	if r.handoffs != 1 {
		t.Fatalf("%d handoffs after Start, want 1", r.handoffs)
	}
	mustOK(t, r.Run())
	before := ReadCounts()
	r.Close()
	// The launch, the first write's reply, and the read's reply.
	if got, want := ReadCounts().Sub(before), (Counts{Steps: 3, Handoffs: 3}); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
}

// TestWriteOnlyLoopMaxSteps: a program that writes forever without
// reading ends in ErrMaxSteps, never further ahead of the runner than
// maxPosted posted writes and the one that handed off. The program stops
// after a fixed number of writes, so a missing bound fails the count check
// instead of filling memory, and a runner that never returns fails the
// test at its deadline.
func TestWriteOnlyLoopMaxSteps(t *testing.T) {
	const budget = 10_000
	r := New(Config{MaxSteps: budget})
	v := r.Alloc("v", 0)
	issued := 0
	r.AddProc(func(p Proc) {
		for issued < budget+4*maxPosted {
			issued++
			p.Write(v, uint64(issued))
		}
		p.Read(v)
	})
	mustOK(t, r.Start())
	done := make(chan error, 1)
	go func() { done <- r.Run() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrMaxSteps) {
			t.Fatalf("Run: %v, want ErrMaxSteps", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run did not return within a minute")
	}
	if issued > budget+maxPosted+1 {
		t.Errorf("the program issued %d writes by step %d, more than %d ahead", issued, budget, maxPosted+1)
	}
	r.Close()
}

// TestCrashBeforePostedWrite: a crash between a write's post and its
// execution discards the write. Memory, the dead incarnation's account and
// the Go effect the program makes right after the next Section marker are
// untouched, also after a restarted incarnation has run.
func TestCrashBeforePostedWrite(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	effect := false
	r.AddProc(func(p Proc) {
		p.Section(memmodel.SecEntry)
		p.Read(v)
		p.Write(v, 1)
		p.Section(memmodel.SecExit)
		effect = true
		p.Read(v)
	})
	mustOK(t, r.Start())
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if ps := r.procs[0]; ps.status != statusPoised || ps.pending.kind != memmodel.OpWrite {
		t.Fatalf("after the read: status %d, pending %+v; want poised at the posted write", ps.status, ps.pending)
	}
	mustOK(t, r.Crash(0))
	mustOK(t, r.Restart(0, func(p Proc) {
		p.Section(memmodel.SecRecover)
		p.Read(v)
	}))
	mustOK(t, r.Run())
	dead := r.AccountsOf(0)[0]
	r.Close()
	if got := r.Value(v); got != 0 {
		t.Errorf("v = %d, want 0: the discarded write took effect", got)
	}
	if dead.TotalSteps != 1 || dead.Section() != memmodel.SecEntry || dead.SectionSteps[memmodel.SecExit] != 0 {
		t.Errorf("dead incarnation's account %+v, want one entry step and no exit section", *dead)
	}
	if effect {
		t.Error("the Go effect after the marker ran although the write before it never executed")
	}
}
