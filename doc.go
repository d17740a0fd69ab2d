// Package repro is a full reproduction of Danny Hendler's "On the
// Complexity of Reader-Writer Locks" (PODC 2016): the A_f reader-writer
// lock family, the remote-memory-reference (RMR) lower-bound machinery and
// its adversarial execution construction, the substrate objects the paper
// builds on (Jayanti-style f-array counters, a tournament mutex), the
// Section-6 baselines, a deterministic cache-coherent simulator that counts
// RMRs exactly as the paper's model prescribes, and a native sync/atomic
// backend for real-hardware runs.
//
// Start with DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record. The public entry points live under internal/:
//
//   - internal/core: the A_f algorithm family (the paper's contribution)
//   - internal/sim: the CC-model simulator (write-through and write-back)
//   - internal/lowerbound: the Theorem-5 adversary
//   - internal/native: real-atomics backend and lock handles
//   - internal/experiments: the E1-E15 reproduction experiments and their registry
//
// The benchmarks in bench_test.go regenerate every experiment table:
//
//	go test -bench=. -benchmem
package repro
