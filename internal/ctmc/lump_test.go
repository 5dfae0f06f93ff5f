package ctmc_test

import (
	"reflect"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
)

// TestLumpDeterministic: repeated Lump calls on one chain return the
// same partition and the same quotient, transition for transition and
// in the same order.
func TestLumpDeterministic(t *testing.T) {
	c := core.TAGExp{Lambda: 5, Mu: 10, T: 9, N: 3, K1: 5, K2: 5}.Build()
	part, q, err := c.Lump(make(ctmc.Partition, c.NumStates()))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Transitions()) < 2 {
		t.Fatalf("quotient has %d transitions: nothing to order", len(q.Transitions()))
	}
	for range 10 {
		p, again, err := c.Lump(make(ctmc.Partition, c.NumStates()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, part) || !reflect.DeepEqual(again.Transitions(), q.Transitions()) {
			t.Fatal("repeated Lump calls return different quotients")
		}
	}
}
