package experiments

import (
	"strings"
	"testing"
)

// TestRegistryNames pins the registry to the simulator tables of
// EXPERIMENTS.md (all but native E7), in order, with no duplicates.
func TestRegistryNames(t *testing.T) {
	want := []string{"E1", "E2", "E3a", "E3b", "E4", "E5", "E6", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16"}
	seen := map[string]bool{}
	var got []string
	for _, e := range Registry() {
		if seen[e.Name] {
			t.Errorf("duplicate entry %s", e.Name)
		}
		seen[e.Name] = true
		got = append(got, e.Name)
		if e.Title == "" || e.Run == nil {
			t.Errorf("entry %s has no title or no Run", e.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("registry names %v, want %v", got, want)
	}
}

// TestRegistryQuickRuns runs every entry on its quick grid, and so every
// claim the tables check (E13-E15 run their only grid).
func TestRegistryQuickRuns(t *testing.T) {
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			table, err := e.Run(true)
			if err != nil {
				t.Fatal(err)
			}
			// A rendered table has a header, a rule and at least one row.
			if lines := strings.Split(strings.TrimSpace(table.String()), "\n"); len(lines) < 3 {
				t.Errorf("table has %d lines:\n%s", len(lines), table)
			}
		})
	}
}
