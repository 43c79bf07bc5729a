package placement

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p := tiny(t, 3)
	s := buildFeasibleSolution(p)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(p); err != nil {
		t.Fatalf("round-tripped solution invalid: %v", err)
	}
	if got.Volume(p) != s.Volume(p) || len(got.Admitted()) != len(s.Admitted()) {
		t.Fatal("round trip changed the solution")
	}
	if got.TotalReplicas() != s.TotalReplicas() {
		t.Fatal("round trip changed replica count")
	}
	for i := range s.Assignments {
		if got.Assignments[i] != s.Assignments[i] {
			// Save sorts assignments; compare as sets.
			found := false
			for _, a := range got.Assignments {
				if a == s.Assignments[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("assignment %+v lost in round trip", s.Assignments[i])
			}
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       "{",
		"bad-key":       `{"replicas":{"abc":[1]}}`,
		"neg-dataset":   `{"replicas":{"-1":[1]}}`,
		"neg-node":      `{"replicas":{"0":[-2]}}`,
		"neg-admitted":  `{"replicas":{},"admitted":[-1]}`,
		"neg-assigning": `{"replicas":{},"assignments":[{"query":-1,"dataset":0,"node":0}]}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadSortsAdmitted(t *testing.T) {
	in := `{"replicas":{},"admitted":[5,1,3]}`
	s, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Admitted()[0] != 1 || s.Admitted()[1] != 3 || s.Admitted()[2] != 5 {
		t.Fatalf("admitted not sorted: %v", s.Admitted())
	}
}

func TestDiffReplicas(t *testing.T) {
	old := NewSolution()
	old.AddReplica(0, 1)
	old.AddReplica(0, 2)
	old.AddReplica(1, 3)
	upd := NewSolution()
	upd.AddReplica(0, 2)
	upd.AddReplica(0, 4) // add
	upd.AddReplica(2, 5) // new dataset
	// dataset 1 dropped entirely

	d := DiffReplicas(old, upd)
	if len(d.Add[0]) != 1 || d.Add[0][0] != 4 {
		t.Fatalf("Add[0] = %v, want [4]", d.Add[0])
	}
	if len(d.Add[2]) != 1 || d.Add[2][0] != 5 {
		t.Fatalf("Add[2] = %v, want [5]", d.Add[2])
	}
	if len(d.Remove[0]) != 1 || d.Remove[0][0] != 1 {
		t.Fatalf("Remove[0] = %v, want [1]", d.Remove[0])
	}
	if len(d.Remove[1]) != 1 || d.Remove[1][0] != 3 {
		t.Fatalf("Remove[1] = %v, want [3]", d.Remove[1])
	}
	if d.Moves() != 4 {
		t.Fatalf("Moves = %d, want 4", d.Moves())
	}
}

func TestDiffIdentityIsEmpty(t *testing.T) {
	p := tiny(t, 5)
	s := buildFeasibleSolution(p)
	d := DiffReplicas(s, s)
	if d.Moves() != 0 {
		t.Fatalf("self diff has %d moves", d.Moves())
	}
}
