package core

import (
	"testing"

	"repro/internal/simnet"
)

func TestRunFaulty(t *testing.T) {
	if err := simnet.RunFaulty(3); err != nil {
		t.Fatal(err)
	}
}
