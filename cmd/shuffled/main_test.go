package main

import (
	"math"
	"testing"

	"shuffledp/internal/amplify"
)

// At the command's defaults (n=20000, d=64, eps=1, delta=1e-9) every
// epoch of ⌊n/epochs⌋ reports must realize exactly the charged eps.
// Planning at the whole stream instead realized 1.73 at 3 epochs and
// 3.16 at 10 while charging 1.00.
func TestPlanEpochsAtDefaults(t *testing.T) {
	const n, d, epsC, delta = 20000, 64, 1.0, 1e-9
	for _, tc := range []struct {
		epochs, reports, dPrime int
		epsL                    float64
	}{
		{1, 20000, 22, 3.822},
		{3, 6666, 8, 2.723},
		{10, 2000, 2, 1.735},
	} {
		plan, err := planEpochs(n, d, tc.epochs, epsC, delta)
		if err != nil {
			t.Fatalf("epochs=%d: %v", tc.epochs, err)
		}
		if plan.reports != tc.reports || plan.dPrime != tc.dPrime || math.Abs(plan.epsL-tc.epsL) > 5e-4 {
			t.Errorf("epochs=%d: planned %+v, want reports=%d d'=%d epsL=%.3f",
				tc.epochs, plan, tc.reports, tc.dPrime, tc.epsL)
		}
		if got := amplify.CentralEpsilonSOLH(plan.epsL, plan.dPrime, plan.reports, delta); math.Abs(got-epsC) > 1e-9 {
			t.Errorf("epochs=%d: realized eps %.6f at %d reports, want %.6f", tc.epochs, got, plan.reports, epsC)
		}
		// A short final epoch realizes more than it is charged, and the
		// printed figure says so.
		if got := plan.realizedEps(plan.reports/2, delta); got <= epsC {
			t.Errorf("epochs=%d: half-size epoch realized %.3f, want > %.3f", tc.epochs, got, epsC)
		}
	}
	plan, err := planEpochs(n, d, 3, epsC, delta)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.realizedEps(0, delta); got != 0 {
		t.Errorf("an empty epoch realized %.3f, want 0", got)
	}
	if got := plan.realizedEps(1, delta); got != plan.epsL {
		t.Errorf("a one-report epoch realized %.3f, want the local %.3f", got, plan.epsL)
	}
	if _, err := planEpochs(3, d, 3, epsC, delta); err == nil {
		t.Error("planned epochs of one report each")
	}
}
