package arc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arc"
	"repro/internal/harc"
)

// TestKFlowMatchesReference holds the flow skeleton and its bidirectional
// search to the per-ETG forward construction they replaced
// (kflow_reference_test.go): the same flow value and the same cut for
// k = 1..4, over the population the views are pinned on (Figure 2a, the
// 24-network corpus, the broken fat-trees) — each class's tcETG as built,
// with random links failed, and a few views under random masks — and over
// small networks of the shapes the generators never emit, where the subset
// enumeration is affordable and joins in.
func TestKFlowMatchesReference(t *testing.T) {
	for _, inst := range referenceInstances(t) {
		t.Run(inst.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(inst.name))))
			h := harc.Build(inst.net)
			for _, row := range strided(len(h.TCs), 200) {
				e, what := h.TC[row], h.TCs[row].String()
				arc.CheckKFlow(t, what, e, inst.net, false)
				arc.CheckKFlow(t, what+" with failures", e.WithoutLinks(arc.RandomFailures(inst.net, r)), inst.net, false)
			}
			for i := 0; i < 5; i++ {
				e := arc.RandomMaskETG(h.Table, r)
				arc.CheckKFlow(t, "random mask", e, inst.net, false)
				arc.CheckKFlow(t, "random mask with failures", e.WithoutLinks(arc.RandomFailures(inst.net, r)), inst.net, false)
			}
		})
	}
	t.Run("odd-shapes", func(t *testing.T) {
		for seed := int64(0); seed < 150; seed++ {
			r := rand.New(rand.NewSource(seed))
			arc.CheckKFlowNetwork(t, fmt.Sprintf("seed %d", seed), arc.OddNetwork(r), r)
		}
	})
}
