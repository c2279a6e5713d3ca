package generate_test

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/generate"
	"repro/internal/topology"
)

func TestPresetUnknown(t *testing.T) {
	if _, err := generate.Preset("no-such-preset", 1); err == nil {
		t.Fatal("unknown preset did not error")
	}
}

// TestPresetClassCounts pins the role-equivalence structure the refiner
// must find on each symmetric preset for a single inter-pod traffic
// class: these are regression anchors — if a refiner change splits more
// (lost compression) or fewer (risky over-merging) classes, this fails
// and the change needs a deliberate re-pin. A repair's per-destination
// specs pin every source leaf and refine further
// (TestRepairQuotientSizes in internal/core).
func TestPresetClassCounts(t *testing.T) {
	cases := []struct {
		preset string
		seed   int64
		// devices is the generated network size; classes the refined
		// partition size; quotient the synthesized device count at
		// redundancy 2 (singleton endpoint classes keep one member).
		devices, classes, quotient int
	}{
		// Both fat-trees refine to the same 13 classes — core, per-pod
		// aggregation/edge roles, and the two concrete endpoint edges —
		// so the quotient size is scale-invariant while the concrete
		// network quadruples.
		{"fattree-k8", 11, 80, 13, 24},
		{"fattree-k16", 11, 320, 13, 24},
		// The leaf-spine DCs collapse to spines, plain leaves, and the
		// two endpoint leaves — the partition is scale-invariant, so
		// dc-512 pins the same classes over twice the concrete devices.
		{"dc-256", 11, 256, 4, 6},
		{"dc-512", 11, 512, 4, 6},
	}
	for _, tc := range cases {
		t.Run(tc.preset, func(t *testing.T) {
			inst, err := generate.Preset(tc.preset, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := inst.Network.NumDevices(); got != tc.devices {
				t.Fatalf("devices = %d, want %d", got, tc.devices)
			}
			if len(inst.Policies) == 0 {
				t.Fatal("preset generated no policies")
			}
			q, err := compress.Build(inst.Network, compress.Spec{
				TCs:        []topology.TrafficClass{inst.Policies[0].TC},
				Redundancy: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(q.Classes) != tc.classes {
				t.Errorf("classes = %d, want %d", len(q.Classes), tc.classes)
			}
			if got := q.Net.NumDevices(); got != tc.quotient {
				t.Errorf("quotient devices = %d, want %d", got, tc.quotient)
			}
			if err := q.Net.Validate(); err != nil {
				t.Errorf("quotient does not validate: %v", err)
			}
		})
	}
}
