package mpi

import (
	"fmt"
	"strings"
	"testing"
)

// concatMerge is a deliberately variable-length MergeOp: it appends src to
// acc with a separator, so the result length depends on the tree shape and
// every contribution must appear exactly once.
func concatMerge(acc, src []byte) ([]byte, error) {
	acc = append(acc, ';')
	return append(acc, src...), nil
}

func TestReduceMergeVariableLengths(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < p; root += 2 {
			err := RunLocal(p, func(c *Comm) error {
				// Rank r contributes a token of length r+1.
				token := strings.Repeat(string(rune('a'+c.Rank())), c.Rank()+1)
				res, err := c.ReduceMerge(root, []byte(token), concatMerge)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if res != nil {
						return fmt.Errorf("non-root got data")
					}
					return nil
				}
				got := string(res)
				for r := 0; r < p; r++ {
					want := strings.Repeat(string(rune('a'+r)), r+1)
					if n := strings.Count(got, want); n < 1 {
						return fmt.Errorf("contribution of rank %d missing in %q", r, got)
					}
				}
				// Total payload length: all tokens plus p-1 separators.
				wantLen := p - 1
				for r := 0; r < p; r++ {
					wantLen += r + 1
				}
				if len(got) != wantLen {
					return fmt.Errorf("merged length %d, want %d (%q)", len(got), wantLen, got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceMergeOpError(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		bad := func(acc, src []byte) ([]byte, error) {
			return nil, fmt.Errorf("boom")
		}
		_, err := c.ReduceMerge(0, []byte{1}, bad)
		if c.Rank() == 0 {
			if err == nil {
				return fmt.Errorf("merge error not propagated at root")
			}
			return nil
		}
		// Leaf ranks only send; they may or may not see an error.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
