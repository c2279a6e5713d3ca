// Package compress implements Bonsai-style symmetry compression for
// control plane repair: it collapses role-equivalent routers into a
// quotient network small enough to encode and solve cheaply, then lets
// the caller concretize the abstract patch back onto every class member
// ("Control Plane Compression", Beckett et al., SIGCOMM 2018, adapted
// to CPR's per-destination repair problems).
//
// The pipeline is: seed a partition of the devices on local
// configuration shape (protocol mix, redistribution, route filters,
// static routes, ACL signatures, link costs, waypoint role), refine it
// against the neighborhood structure to a fixed point (two devices stay
// merged only if their incident edges lead to matching classes with
// matching edge attributes), then synthesize a quotient
// topology.Network that keeps a bounded number of representative
// members per class and rewires cross-class links onto them.
//
// Compression is deliberately heuristic: the quotient repair is only
// trusted after the concretized patch re-verifies on the uncompressed
// network (internal/core falls back to uncompressed repair otherwise),
// so the refiner may safely over-merge in corner cases. Splitting too
// eagerly merely costs compression ratio, never correctness.
package compress

import (
	"fmt"
	"strconv"

	"repro/internal/topology"
)

// Spec describes one compression request: the traffic classes of the
// sub-problem being repaired (their endpoint subnets stay concrete) and
// the per-class redundancy.
type Spec struct {
	// TCs are the traffic classes of the repair sub-problem. Subnets not
	// referenced by any of them are irrelevant to the problem and are
	// dropped from the quotient along with their attachment interfaces.
	TCs []topology.TrafficClass
	// Redundancy is the number of representative members kept per
	// equivalence class (minimum 1). Keeping k members preserves
	// k-link-disjoint path structure through a class, so callers should
	// use at least the largest PC3 K of the problem. Values at or above
	// the largest class size make the quotient lossless.
	Redundancy int
}

// Class is one role-equivalence class of devices.
type Class struct {
	// Members lists the concrete device names, sorted.
	Members []string
	// Kept lists the members present in the quotient (a prefix of
	// Members of length min(Redundancy, len(Members))).
	Kept []string
}

// Quotient is a compressed view of a network.
type Quotient struct {
	// Net is the synthesized quotient network. Device, interface,
	// process, subnet and ACL names of kept devices match the concrete
	// network, so HARC slot keys on kept devices coincide with their
	// concrete counterparts.
	Net *topology.Network
	// Classes are the role-equivalence classes, in deterministic order.
	Classes []Class
	// ClassOf maps every concrete device name to its class index.
	ClassOf map[string]int
	// Rep maps every concrete device name to its assigned kept
	// representative (member i of a class maps to kept member i mod k,
	// so representatives are themselves their own reps). Quotient-side
	// repairs on a representative are concretized onto exactly the
	// members assigned to it.
	Rep map[string]string
	// Devices is the concrete network's device count.
	Devices int
	// DroppedLinks counts concrete links with no quotient image (both
	// ends dropped, or all candidate rewire targets already linked).
	DroppedLinks int
}

// Ratio returns the device-count compression ratio (concrete devices
// per quotient device); 1.0 means no compression.
func (q *Quotient) Ratio() float64 {
	if q.Net.NumDevices() == 0 {
		return 1
	}
	return float64(q.Devices) / float64(q.Net.NumDevices())
}

// Build computes role-equivalence classes for n and synthesizes the
// quotient network. Devices attached to a subnet referenced by spec.TCs
// are policy endpoints and stay concrete (singleton classes). The
// returned quotient is structurally valid (Net.Validate passes) but not
// guaranteed to be behaviorally equivalent — callers must re-verify
// concretized repairs on the uncompressed network.
func Build(n *topology.Network, spec Spec) (*Quotient, error) {
	return Prepare(n).Build(spec)
}

// Build is the package-level Build for the prepared network.
func (p *Prepared) Build(spec Spec) (*Quotient, error) {
	if len(spec.TCs) == 0 {
		return nil, fmt.Errorf("compress: no traffic classes")
	}
	relevant := spec.relevant()
	return synthesize(p.n, p.refine(relevant), spec.redundancy(), relevant)
}

// Key returns a string that two specs share iff Build makes the same
// quotient of the prepared network from them: Build reads a spec only
// through its redundancy and its relevant subnets — the endpoints of its
// classes, of which only the network's own count.
func (p *Prepared) Key(spec Spec) string {
	if len(spec.TCs) == 0 {
		return ""
	}
	relevant := spec.relevant()
	b := strconv.AppendInt(nil, int64(spec.redundancy()), 10)
	for i, s := range p.n.Subnets {
		if relevant[s] {
			b = strconv.AppendInt(append(b, ' '), int64(i), 10)
		}
	}
	return string(b)
}

// relevant returns the endpoint subnets of the spec's classes.
func (spec Spec) relevant() map[*topology.Subnet]bool {
	relevant := make(map[*topology.Subnet]bool)
	for _, tc := range spec.TCs {
		relevant[tc.Src] = true
		relevant[tc.Dst] = true
	}
	return relevant
}

// redundancy returns the representatives kept per class (at least one).
func (spec Spec) redundancy() int { return max(spec.Redundancy, 1) }
