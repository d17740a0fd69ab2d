package sim

import (
	"slices"

	"repro/internal/memmodel"
)

// simProc is the memmodel.Proc / sim.Proc implementation handed to each
// simulated process goroutine. Every request goes to the process's outbox
// (procState.outbox), in issue order. A Section marker never waits. An
// operation the script answers (see Runner.RunAhead) takes its response
// from there, so a process with a script runs ahead to its state at the
// script's end in one handoff. Any other operation, and a barrier, hands
// off: the goroutine sends on req and blocks on resp until the runner has
// worked through the outbox and replies.
//
// The outbox changes hands with the handoff: the goroutine appends only
// while it runs, the runner reads it only after receiving on req (or
// seeing req closed when the program returns), and empties it before it
// sends on resp. Between Runner calls every live goroutine is therefore
// parked on its resp receive, or has exited; Close relies on it.
type simProc struct {
	ps *procState
	// ahead is the goroutine's position in ps.script: the number of
	// operations it answered from the script so far.
	ahead int
}

var _ Proc = (*simProc)(nil)

// call issues one request. It answers an operation from the script while
// the script lasts; otherwise, and always for a barrier, which only the
// driver releases, it hands off and blocks until the runner replies.
// Runner.Close aborts a parked process by closing its resp channel; the
// receive then fails and call panics with errAborted, which the process
// goroutine's deferred recover treats as a clean shutdown.
func (p *simProc) call(rq request) response {
	if i := p.push(&rq); i >= 0 {
		return p.ps.script[i].resp
	}
	p.ps.req <- struct{}{}
	resp, ok := <-p.ps.resp
	if !ok {
		panic(errAborted)
	}
	return resp
}

// push appends rq to the outbox and returns the index of its answer in
// the script, or -1 if it has none. It is kept out of call, whose frame
// sits under every handoff: a larger one makes the goroutine outgrow its
// initial stack, and then copy it.
//
//go:noinline
func (p *simProc) push(rq *request) int {
	p.ps.outbox = append(p.ps.outbox, *rq)
	if rq.barrier || p.ahead == len(p.ps.script) {
		return -1
	}
	p.ahead++
	return p.ahead - 1
}

// ID implements memmodel.Proc.
func (p *simProc) ID() int { return p.ps.id }

// Read implements memmodel.Proc.
func (p *simProc) Read(v memmodel.Var) uint64 {
	return p.call(request{kind: memmodel.OpRead, v: v}).val
}

// Write implements memmodel.Proc.
func (p *simProc) Write(v memmodel.Var, x uint64) {
	p.call(request{kind: memmodel.OpWrite, v: v, arg: x})
}

// CAS implements memmodel.Proc.
func (p *simProc) CAS(v memmodel.Var, old, newVal uint64) (uint64, bool) {
	resp := p.call(request{kind: memmodel.OpCAS, v: v, exp: old, arg: newVal})
	return resp.val, resp.swapped
}

// FetchAdd implements memmodel.Proc.
func (p *simProc) FetchAdd(v memmodel.Var, delta uint64) uint64 {
	return p.call(request{kind: memmodel.OpFetchAdd, v: v, arg: delta}).val
}

// Await implements memmodel.Proc. Single-variable awaits carry no vars
// slice: the runner keys the single/multi distinction on mpred, so the
// request is allocation-free like the other single-variable operations.
func (p *simProc) Await(v memmodel.Var, pred memmodel.Pred) uint64 {
	return p.call(request{kind: memmodel.OpAwait, v: v, pred: pred}).val
}

// AwaitMulti implements memmodel.Proc.
func (p *simProc) AwaitMulti(vars []memmodel.Var, pred memmodel.MultiPred) []uint64 {
	vs := make([]memmodel.Var, len(vars))
	copy(vs, vars)
	ahead := p.ahead
	vals := p.call(request{kind: memmodel.OpAwait, vars: vs, mpred: pred}).vals
	if p.ahead != ahead {
		// Answered from the script, which other executions share: the
		// program gets its own copy.
		vals = cloneVals(vals)
	}
	return vals
}

// cloneVals is slices.Clone, kept out of AwaitMulti's frame, which sits
// under a handoff.
//
//go:noinline
func cloneVals(vals []uint64) []uint64 { return slices.Clone(vals) }

// Section implements memmodel.Proc. The marker waits in the outbox until
// the runner next hears from the process.
func (p *simProc) Section(s memmodel.Section) {
	p.ps.outbox = append(p.ps.outbox, request{section: s})
}

// Barrier implements sim.Proc. A barrier always hands off: only the driver
// releases it.
func (p *simProc) Barrier() {
	p.call(request{barrier: true})
}
