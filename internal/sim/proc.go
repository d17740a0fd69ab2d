package sim

import "repro/internal/memmodel"

// simProc is the memmodel.Proc / sim.Proc implementation handed to each
// simulated process goroutine. Every operation is a rendezvous with the
// runner: send the request on req, block until the runner schedules and
// applies it, receive the response on resp. Both are plain channel
// operations. The runner receives on req whenever it resumes a process (it
// settles the process at its next operation before returning to the
// driver), so the send never waits for long; between runner calls every
// live goroutine is parked on its resp receive.
type simProc struct {
	ps *procState
}

var _ Proc = (*simProc)(nil)

// call performs the request/response rendezvous. Runner.Close aborts a
// parked process by closing its resp channel; the receive then fails and
// call panics with errAborted, which the process goroutine's deferred
// recover treats as a clean shutdown.
func (p *simProc) call(rq request) response {
	p.ps.req <- rq
	resp, ok := <-p.ps.resp
	if !ok {
		panic(errAborted)
	}
	return resp
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
	return p.call(request{kind: memmodel.OpAwait, vars: vs, mpred: pred}).vals
}

// Section implements memmodel.Proc.
func (p *simProc) Section(s memmodel.Section) {
	p.call(request{section: s})
}

// Barrier implements sim.Proc.
func (p *simProc) Barrier() {
	p.call(request{barrier: true})
}
