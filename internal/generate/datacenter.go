package generate

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/topology"
)

// DCOptions parameterizes one synthetic data-center network. The corpus
// defaults are calibrated to the paper's published statistics (§8): 96
// networks, 2-24 routers with a median of 8, roughly one policy per
// traffic class with a PC1/PC3 mix that varies per network, and a small
// number of violated policies per snapshot.
type DCOptions struct {
	Name    string
	Routers int // total devices (spine-leaf split is derived)
	Subnets int // host subnets spread across the leaves
	// BlockedFrac is the fraction of traffic classes under a PC1 policy;
	// the rest carry PC3.
	BlockedFrac float64
	// FullyBlockedDsts is the number of destinations whose every source
	// is blocked (these admit the operator's aggregate-ACL repairs that
	// beat CPR's per-class rules, §8.3).
	FullyBlockedDsts int
	// Violations is the number of policies the breaker violates.
	Violations int
	// SpineSpray makes the breaker (and the operator) work on the spine
	// ACLs (one line per spine) instead of the destination leaf.
	SpineSpray bool
	Seed       int64
}

// DataCenter generates a broken leaf-spine network with its policy
// specification. The returned instance's configurations violate exactly
// the policies the breaker targeted (callers can check Violations).
func DataCenter(opts DCOptions) (*Instance, error) {
	if opts.Routers < 2 {
		return nil, fmt.Errorf("generate: data center needs at least 2 routers")
	}
	if opts.Subnets < 2 {
		return nil, fmt.Errorf("generate: data center needs at least 2 subnets")
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	spines := opts.Routers / 4
	if spines < 1 {
		spines = 1
	}
	if spines > 4 {
		spines = 4
	}
	leaves := opts.Routers - spines
	if leaves < 1 {
		return nil, fmt.Errorf("generate: %d routers leave no leaves", opts.Routers)
	}

	builders := map[string]*cfgBuilder{}
	var spineNames, leafNames []string
	for i := 0; i < spines; i++ {
		name := fmt.Sprintf("spine%d", i)
		spineNames = append(spineNames, name)
		builders[name] = newCfgBuilder(name)
	}
	for i := 0; i < leaves; i++ {
		name := fmt.Sprintf("leaf%d", i)
		leafNames = append(leafNames, name)
		builders[name] = newCfgBuilder(name)
	}

	// Full bipartite spine-leaf links.
	linkIdx := 0
	for li, leaf := range leafNames {
		for si, spine := range spineNames {
			a := netip.AddrFrom4([4]byte{10, byte(linkIdx / 250), byte(linkIdx % 250), 1})
			b := netip.AddrFrom4([4]byte{10, byte(linkIdx / 250), byte(linkIdx % 250), 2})
			linkIdx++
			builders[leaf].addIntf(fmt.Sprintf("Link-to-%s", spine), a, 24, "ip ospf cost 10")
			builders[spine].addIntf(fmt.Sprintf("Link-to-%s", leaf), b, 24, "ip ospf cost 10")
			_ = li
			_ = si
		}
	}
	// Spread subnets round-robin across leaves; record host interfaces.
	var subs []dcSubnet
	for s := 0; s < opts.Subnets; s++ {
		leaf := leafNames[s%len(leafNames)]
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(s / 250), byte(s % 250), 0}), 24)
		name := fmt.Sprintf("net%d", s)
		b := builders[leaf]
		intf := b.addIntf(config.SubnetDescriptionPrefix+name, prefix.Addr().Next(), 24,
			fmt.Sprintf("ip access-group HOST-%s out", name))
		b.router = append(b.router, "passive-interface "+intf)
		b.aclOrder = append(b.aclOrder, "HOST-"+name)
		subs = append(subs, dcSubnet{name: name, prefix: prefix, leaf: leaf, hostIntf: intf})
	}
	// Spine ACLs (initially permit-all), applied inbound on every spine
	// interface.
	for _, spine := range spineNames {
		b := builders[spine]
		b.aclOrder = append(b.aclOrder, "SPINE-ACL")
		b.acls["SPINE-ACL"] = []string{"permit ip any any"}
		// Attach to every interface.
		patched := make([]string, 0, len(b.lines))
		for _, l := range b.lines {
			patched = append(patched, l)
			if len(l) > 11 && l[:10] == " ip addres" {
				patched = append(patched, " ip access-group SPINE-ACL in")
			}
		}
		b.lines = patched
	}

	// Policy assignment: pick blocked pairs. Fully-blocked destinations
	// first, then random pairs up to the target fraction.
	type pair struct{ a, b int }
	blocked := map[pair]bool{}
	order := rng.Perm(len(subs))
	fully := opts.FullyBlockedDsts
	if fully > len(subs)/2 {
		fully = len(subs) / 2
	}
	fullyBlocked := map[int]bool{}
	for i := 0; i < fully; i++ {
		dst := order[i]
		fullyBlocked[dst] = true
		for a := range subs {
			if a != dst {
				blocked[pair{a, dst}] = true
			}
		}
	}
	total := len(subs) * (len(subs) - 1)
	want := int(opts.BlockedFrac * float64(total))
	for len(blocked) < want {
		a, b := rng.Intn(len(subs)), rng.Intn(len(subs))
		if a == b || fullyBlocked[a] {
			continue
		}
		blocked[pair{a, b}] = true
	}
	// Emit the deny entries on the destination's host ACL.
	type keyed struct {
		p    pair
		line string
	}
	var denies []keyed
	for p := range blocked {
		src, dst := subs[p.a], subs[p.b]
		denies = append(denies, keyed{p, fmt.Sprintf("deny ip %s %s %s %s",
			src.prefix.Addr(), wild4(24), dst.prefix.Addr(), wild4(24))})
	}
	sort.Slice(denies, func(i, j int) bool { return denies[i].line < denies[j].line })
	for _, d := range denies {
		dst := subs[d.p.b]
		b := builders[dst.leaf]
		b.acls["HOST-"+dst.name] = append(b.acls["HOST-"+dst.name], d.line)
	}
	for _, s := range subs {
		b := builders[s.leaf]
		b.acls["HOST-"+s.name] = append(b.acls["HOST-"+s.name], "permit ip any any")
	}

	inst := &Instance{Name: opts.Name, Configs: map[string]*config.Config{}}
	for name, b := range builders {
		cfg, err := config.Parse(name+".cfg", b.text())
		if err != nil {
			return nil, fmt.Errorf("generate: dc config %s: %w", name, err)
		}
		inst.Configs[name] = cfg
	}
	if err := inst.Rebuild(); err != nil {
		return nil, err
	}

	// Policies: PC1 for blocked pairs, PC3 otherwise (K=2 when two
	// disjoint paths exist, i.e. at least two spines; K=1 otherwise,
	// matching the inference the paper applies to real snapshots).
	k := 1
	if spines >= 2 {
		k = 2
	}
	n := inst.Network
	var ps []policy.Policy
	for a := range subs {
		for b := range subs {
			if a == b {
				continue
			}
			tc := topology.TrafficClass{Src: n.Subnet(subs[a].name), Dst: n.Subnet(subs[b].name)}
			if blocked[pair{a, b}] {
				ps = append(ps, policy.Policy{Kind: policy.AlwaysBlocked, TC: tc})
			} else {
				kk := k
				if subs[a].leaf == subs[b].leaf {
					kk = 1 // same-leaf classes have a single attachment path
				}
				ps = append(ps, policy.Policy{Kind: policy.KReachable, K: kk, TC: tc})
			}
		}
	}
	inst.Policies = ps

	// Break the snapshot.
	if opts.Violations > 0 {
		if err := breakDataCenter(inst, subs, opts, rng); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// dcSubnet records a generated subnet's placement.
type dcSubnet struct {
	name     string
	prefix   netip.Prefix
	leaf     string
	hostIntf string
}

// breakDataCenter violates opts.Violations policies: PC1 policies lose
// their deny line; PC3 policies gain denies — on the destination leaf or
// sprayed across every spine (SpineSpray).
func breakDataCenter(inst *Instance, subs []dcSubnet, opts DCOptions, rng *rand.Rand) error {
	subnetByName := map[string]dcSubnet{}
	for _, s := range subs {
		subnetByName[s.name] = s
	}
	// Prefer breaking PC1 policies of fully-blocked destinations (their
	// repair is the interesting aggregate case), then a mix.
	perm := rng.Perm(len(inst.Policies))
	var chosen []policy.Policy
	for _, i := range perm {
		if len(chosen) >= opts.Violations {
			break
		}
		chosen = append(chosen, inst.Policies[i])
	}
	for _, p := range chosen {
		src, dst := p.TC.Src, p.TC.Dst
		dstInfo := subnetByName[dst.Name]
		leafCfg := inst.Configs[dstInfo.leaf]
		acl := leafCfg.ACL("HOST-" + dst.Name)
		switch p.Kind {
		case policy.AlwaysBlocked:
			removeDeny(acl, src.Prefix, dst.Prefix)
			// Fully-blocked destinations may be protected by an aggregate
			// any->dst deny; degrade it so the pair leaks.
			if acl.Blocks(src.Prefix, dst.Prefix) {
				entry := config.ACLEntryLine{Permit: true, Src: src.Prefix, Dst: dst.Prefix}
				acl.Entries = append([]config.ACLEntryLine{entry}, acl.Entries...)
			}
		case policy.KReachable:
			if opts.SpineSpray {
				for name, cfg := range inst.Configs {
					if len(name) >= 5 && name[:5] == "spine" {
						sa := cfg.ACL("SPINE-ACL")
						entry := config.ACLEntryLine{Permit: false, Src: src.Prefix, Dst: dst.Prefix}
						sa.Entries = append([]config.ACLEntryLine{entry}, sa.Entries...)
					}
				}
				// Same-leaf traffic never crosses a spine; block at the
				// leaf as well so the violation is real.
				if subnetByName[src.Name].leaf == dstInfo.leaf {
					entry := config.ACLEntryLine{Permit: false, Src: src.Prefix, Dst: dst.Prefix}
					acl.Entries = append([]config.ACLEntryLine{entry}, acl.Entries...)
				}
			} else {
				entry := config.ACLEntryLine{Permit: false, Src: src.Prefix, Dst: dst.Prefix}
				acl.Entries = append([]config.ACLEntryLine{entry}, acl.Entries...)
			}
		}
	}
	return inst.Rebuild()
}

// CorpusOptions scales the 96-network corpus.
type CorpusOptions struct {
	Networks int
	// SubnetScale multiplies the per-network subnet counts; 1.0 gives a
	// median of ~32 subnets (≈1K traffic classes, the paper's median).
	SubnetScale float64
	Seed        int64
}

// Corpus generates the synthetic stand-in for the paper's 96 real
// data-center networks. Sizes span 2-24 routers with a median of 8;
// traffic-class counts have a long tail; each network has a handful of
// violated policies; policy mixes vary per network (Figure 6).
func Corpus(opts CorpusOptions) ([]*Instance, error) {
	if opts.Networks <= 0 {
		opts.Networks = 96
	}
	if opts.SubnetScale <= 0 {
		opts.SubnetScale = 1.0
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var out []*Instance
	for i := 0; i < opts.Networks; i++ {
		// Router count: 2-24 with a median of 8 (triangular draw plus an
		// occasional large network, matching the paper's dataset shape).
		routers := 3 + rng.Intn(6) + rng.Intn(6)
		switch {
		case rng.Intn(16) == 0:
			routers = 2
		case rng.Intn(8) == 0:
			routers += rng.Intn(12)
		}
		if routers > 24 {
			routers = 24
		}
		// Subnet count: median ≈ 32 (≈1K traffic classes, the paper's
		// median policy count) with a long tail, scaled.
		base := 14 + routers + rng.Intn(12)
		if rng.Intn(12) == 0 {
			base *= 2 // tail network
		}
		subnets := int(float64(base) * opts.SubnetScale)
		if subnets < 2 {
			subnets = 2
		}
		if subnets > 120 {
			subnets = 120
		}
		dc := DCOptions{
			Name:             fmt.Sprintf("dc%02d", i),
			Routers:          routers,
			Subnets:          subnets,
			BlockedFrac:      0.05 + 0.45*rng.Float64(),
			FullyBlockedDsts: rng.Intn(3),
			Violations:       1 + rng.Intn(6),
			SpineSpray:       rng.Intn(3) == 0,
			Seed:             rng.Int63(),
		}
		inst, err := DataCenter(dc)
		if err != nil {
			return nil, fmt.Errorf("generate: corpus network %d: %w", i, err)
		}
		out = append(out, inst)
	}
	return out, nil
}
