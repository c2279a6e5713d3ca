package compress

import (
	"testing"

	"repro/internal/generate"
	"repro/internal/topology"
)

// benchInput generates the fattree-k8 preset (80 routers) and the
// compression request for one of its policies' traffic classes — the
// same shape internal/core submits per repair sub-problem.
func benchInput(b *testing.B) (*topology.Network, Spec) {
	b.Helper()
	inst, err := generate.Preset("fattree-k8", 11)
	if err != nil {
		b.Fatal(err)
	}
	return inst.Network, Spec{
		TCs:        []topology.TrafficClass{inst.Policies[0].TC},
		Redundancy: 2,
	}
}

// BenchmarkCompressRefine isolates the per-request half of the
// partition-refinement fixed point — class seeding on configuration shape
// plus neighborhood rounds — over a network prepared once.
func BenchmarkCompressRefine(b *testing.B) {
	n, spec := benchInput(b)
	relevant := make(map[*topology.Subnet]bool)
	for _, tc := range spec.TCs {
		relevant[tc.Src] = true
		relevant[tc.Dst] = true
	}
	p := Prepare(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := p.refine(relevant)
		if len(part.classes) == 0 {
			b.Fatal("empty partition")
		}
	}
}

// BenchmarkCompressQuotientBuild times the full front end: refinement
// plus quotient network synthesis and validation.
func BenchmarkCompressQuotientBuild(b *testing.B) {
	n, spec := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := Build(n, spec)
		if err != nil {
			b.Fatal(err)
		}
		if q.Net.NumDevices() >= n.NumDevices() {
			b.Fatal("quotient not smaller")
		}
	}
}
