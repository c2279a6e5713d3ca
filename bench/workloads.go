package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/generate"
	"repro/internal/policy"
)

// runConfig is what the command line fixes for one workload run.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
}

// input is one network as the program under test receives it: nothing
// but configuration text and a policy specification.
type input struct {
	name    string
	configs map[string]string // label -> configuration text
	spec    string
}

// workload is one set of inputs and the loop that drives them. All four
// are closed loops: the next op starts when the previous one returned.
type workload struct {
	name string
	why  string
	run  func(w *workload, rc runConfig) (*result, error)

	// Batch workloads only. inputs draws the networks; a round runs each
	// of them once, and at least minRounds rounds are timed however
	// short -seconds is. simReplay adds the forwarding-simulator replay
	// of the originally violated policies to the correctness check
	// (exhaustive failure enumeration, so small networks only).
	inputs    func() ([]*generate.Instance, error)
	minRounds int
	simReplay bool
}

// workloads is the benchmark's fixed input matrix. Each input is pinned
// (generator seeds and all): solve time on these networks swings by
// integer factors with the generator seed, so -seed never resizes an
// input. It only re-labels and re-orders (see textInputs and serveMix).
var workloads = []*workload{
	{
		name: "dc256-oneshot",
		why:  "256-device data center, cold from text: compression engages on every sub-problem; encode, HARC build, translate and allocation dominate, the solver does not",
		run:  runBatch, minRounds: 5,
		inputs: func() ([]*generate.Instance, error) {
			inst, err := generate.Preset("dc-256", 7)
			return []*generate.Instance{inst}, err
		},
	},
	{
		name: "corpus-batch",
		why:  "24 small data centers drawn like the paper's Fig. 7 population (2-24 routers): the uncompressed path, encode-dominated, heterogeneous enough for a real tail",
		// Nine passes are 216 ops, so op_ms_p95 is a p95 (ten ops beyond
		// it) however slow the host runs, never a p90 in one run and a p95
		// in the next.
		run: runBatch, minRounds: 9, simReplay: true,
		inputs: func() ([]*generate.Instance, error) {
			return generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
		},
	},
	{
		name: "fattree-pc4",
		why:  "the paper's Fig. 8 fat-tree with bit-blasted primary-path costs: SAT/MaxSAT search is nine tenths of the op, so encode, HARC and translate changes should not move it",
		run:  runBatch, minRounds: 10, simReplay: true,
		inputs: func() ([]*generate.Instance, error) {
			inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 4, PC2: 2, PC3: 4, PC4: 4, Seed: 3})
			if err != nil {
				return nil, err
			}
			return []*generate.Instance{inst}, generate.BreakFatTree(inst, 5, 8)
		},
	},
	{
		name: "serve-mix",
		why:  "one in-process cprd under a 4:3:3 verify/repair/delta mix on Figure-2a variants: the pipeline per request is tiny, so HTTP, the worker pool and the three cache layers are the cost",
		run:  runServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// textInputs generates the workload's networks and prints them to text.
// The seed permutes what the pipeline is insensitive to by design: the
// label each configuration is filed under (hostnames come from the
// text) and the order networks are visited in. The networks themselves,
// and so the work per op, are the same under every seed.
func (w *workload) textInputs(seed int64) ([]*input, error) {
	insts, err := w.inputs()
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	ins := make([]*input, len(insts))
	for i, inst := range insts {
		hosts := make([]string, 0, len(inst.Configs))
		for h := range inst.Configs {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		in := &input{name: inst.Name, configs: make(map[string]string, len(hosts)), spec: policy.Format(inst.Policies)}
		for j, slot := range rng.Perm(len(hosts)) {
			in.configs[fmt.Sprintf("%04d-%s.cfg", slot, hosts[j])] = inst.Configs[hosts[j]].Print()
		}
		ins[i] = in
	}
	rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	return ins, nil
}
