// Package workload defines the read/write mixes and passage plans the
// experiments and native benchmarks drive locks with. Mixes are the
// motivating scenarios from the paper's introduction: reader-writer locks
// exist because read-mostly sharing is the common case, so experiments
// sweep from read-heavy to write-heavy to expose each algorithm's corners.
package workload

import "fmt"

// Mix is a target fraction of read passages in the workload.
type Mix struct {
	// Name labels the mix in tables ("read-heavy").
	Name string
	// ReadFraction is the fraction of all passages that are reads, in
	// (0, 1].
	ReadFraction float64
}

// Predefined mixes, read-heaviest first.
var (
	// ReadHeavy is 99% reads: the metrics/config-cache scenario.
	ReadHeavy = Mix{Name: "read-heavy", ReadFraction: 0.99}
	// ReadMostly is 90% reads: a typical cache in front of a store.
	ReadMostly = Mix{Name: "read-mostly", ReadFraction: 0.90}
	// Balanced is 50% reads.
	Balanced = Mix{Name: "balanced", ReadFraction: 0.50}
	// WriteHeavy is 10% reads: a write-back queue with occasional
	// consistency probes.
	WriteHeavy = Mix{Name: "write-heavy", ReadFraction: 0.10}
)

// Mixes lists the predefined mixes, read-heaviest first.
var Mixes = []Mix{ReadHeavy, ReadMostly, Balanced, WriteHeavy}

// Plan converts a total passage budget into per-process passage counts for
// n readers and m writers such that the realized read fraction approximates
// the mix. Every live process performs at least one passage.
func Plan(n, m, total int, mix Mix) (readerPassages, writerPassages int) {
	if n <= 0 && m <= 0 {
		return 0, 0
	}
	reads := int(float64(total) * mix.ReadFraction)
	writes := total - reads
	if n > 0 {
		readerPassages = max(reads/n, 1)
	}
	if m > 0 {
		writerPassages = max(writes/m, 1)
	}
	return readerPassages, writerPassages
}

// String renders the mix for tables.
func (m Mix) String() string {
	return fmt.Sprintf("%s(%.0f%%)", m.Name, m.ReadFraction*100)
}
