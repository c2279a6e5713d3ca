// Package translate converts repaired HARC states back into router
// configuration changes (paper §6, Table 3). Each difference between the
// original and repaired state maps to a specific construct edit: ACL
// entries for tcETG deviations, route filters and static routes for dETG
// deviations, adjacency and redistribution changes for aETG edits,
// interface costs for PC4, and middlebox placements for waypoints.
package translate

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/config"
	"repro/internal/harc"
	"repro/internal/topology"
)

// WaypointChange records a middlebox addition or removal on a link. The
// paper counts these separately from configuration lines ("two lines of
// configuration, plus a firewall").
type WaypointChange struct {
	Link string
	Add  bool
}

// Plan is the full set of edits realizing a repaired state.
type Plan struct {
	Lines     []config.LineChange
	Waypoints []WaypointChange
	// Groups partitions Lines by the construct edit that produced them: one
	// group per mutator call (e.g. a fresh ACL plus its attachment is one
	// group). Groups is the granularity at which dropping a patch is
	// meaningful — individual lines of a group are not independent.
	Groups [][]config.LineChange
	// WaypointLines holds, parallel to Waypoints, the configuration lines
	// mirroring each middlebox change (the "waypoint" interface marker).
	// They are excluded from Lines because the paper counts middlebox
	// placements separately from configuration lines.
	WaypointLines [][]config.LineChange
}

// NumLines returns the number of configuration lines changed.
func (p *Plan) NumLines() int { return len(p.Lines) }

// String renders the plan as a diff-style listing.
func (p *Plan) String() string {
	out := ""
	for _, lc := range p.Lines {
		out += lc.String() + "\n"
	}
	for _, wc := range p.Waypoints {
		verb := "add"
		if !wc.Add {
			verb = "remove"
		}
		out += fmt.Sprintf("%s waypoint on link %s\n", verb, wc.Link)
	}
	return out
}

// Translate computes and applies the configuration changes that realize
// the repaired state, mutating cfgs in place. cfgs maps hostnames to
// parsed configurations and must cover every device of the network.
func Translate(h *harc.HARC, orig, repaired *harc.State, cfgs map[string]*config.Config) (*Plan, error) {
	t := &translator{h: h, orig: orig, rep: repaired, cfgs: cfgs, plan: &Plan{}}
	if err := t.run(); err != nil {
		return nil, err
	}
	return t.plan, nil
}

type translator struct {
	h    *harc.HARC
	orig *harc.State
	rep  *harc.State
	cfgs map[string]*config.Config
	plan *Plan
}

func (t *translator) cfg(dev *topology.Device) (*config.Config, error) {
	c := t.cfgs[dev.Name]
	if c == nil {
		return nil, fmt.Errorf("translate: no configuration for device %s", dev.Name)
	}
	return c, nil
}

// add records one mutator call's line changes as a group.
func (t *translator) add(lcs []config.LineChange, err error) error {
	if err != nil || len(lcs) == 0 {
		return err
	}
	t.plan.Lines = append(t.plan.Lines, lcs...)
	t.plan.Groups = append(t.plan.Groups, lcs)
	return nil
}

func (t *translator) run() error {
	for _, d := range t.h.Network.Devices() {
		if _, err := t.cfg(d); err != nil {
			return err
		}
	}
	if err := t.adjacencies(); err != nil {
		return err
	}
	if err := t.redistribution(); err != nil {
		return err
	}
	if err := t.routeFilters(); err != nil {
		return err
	}
	if err := t.staticRoutes(); err != nil {
		return err
	}
	if err := t.interfaceCosts(); err != nil {
		return err
	}
	if err := t.acls(); err != nil {
		return err
	}
	return t.waypoints()
}

// Every pass below walks only the bits at which the original and repaired
// rows differ (bitset.EachDiff; a static route also differs by its
// distance), in ascending id order — the order the
// slot table is sorted in, so lines come out in the order a scan over
// every (row, slot) pair would emit them, at a cost proportional to what
// the repair changed.

// adjacencies handles aETG inter-device edge changes (Table 3: "enable
// routing" and its inverse). Both directions of an adjacency share one
// change; the canonical direction (smaller key) drives it.
func (t *translator) adjacencies() error {
	var err error
	bitset.EachDiff(t.orig.All, t.rep.All, func(id int) {
		s := t.h.Slots[id]
		if err != nil || s.Kind != arc.SlotInterDevice || s.Canon != id {
			return
		}
		if t.rep.All.Has(id) {
			err = t.enableAdjacency(s)
		} else {
			err = t.disableAdjacency(s)
		}
	})
	return err
}

// enableAdjacency fixes whichever side prevents the adjacency. BGP
// sessions need a neighbor statement per side; IGPs need the interface
// active (non-passive and covered).
func (t *translator) enableAdjacency(s *arc.Slot) error {
	for _, side := range []struct {
		proc *topology.Process
		intf *topology.Interface
		peer *topology.Interface
		far  *topology.Process
	}{
		{s.FromProc, s.FromIntf, s.ToIntf, s.ToProc},
		{s.ToProc, s.ToIntf, s.FromIntf, s.FromProc},
	} {
		if side.proc.UsesInterface(side.intf) && !side.proc.IsPassive(side.intf) {
			continue
		}
		c, err := t.cfg(side.proc.Device)
		if err != nil {
			return err
		}
		if side.proc.Proto == topology.BGP {
			if !side.peer.Prefix.IsValid() {
				return fmt.Errorf("translate: BGP peer interface %s has no address", side.peer.Name)
			}
			if err := t.add(c.AddBGPNeighbor(side.proc.ID, side.peer.Prefix.Addr(), side.far.ID)); err != nil {
				return err
			}
			continue
		}
		if err := t.add(c.EnableAdjacency(side.proc.Proto, side.proc.ID, side.intf.Name)); err != nil {
			return err
		}
	}
	return nil
}

// disableAdjacency: one line suffices (passive-interface for IGPs,
// neighbor removal for BGP).
func (t *translator) disableAdjacency(s *arc.Slot) error {
	c, err := t.cfg(s.FromProc.Device)
	if err != nil {
		return err
	}
	if s.FromProc.Proto == topology.BGP {
		return t.add(c.RemoveBGPNeighbor(s.FromProc.ID, s.ToIntf.Prefix.Addr()))
	}
	return t.add(c.DisableAdjacency(s.FromProc.Proto, s.FromProc.ID, s.FromIntf.Name))
}

// redistribution handles aETG intra-device redistribution edges.
func (t *translator) redistribution() error {
	var err error
	bitset.EachDiff(t.orig.All, t.rep.All, func(id int) {
		s := t.h.Slots[id]
		if err != nil || s.Kind != arc.SlotIntraRedist {
			return
		}
		entry, owner := s.ToProc, s.FromProc
		var c *config.Config
		if c, err = t.cfg(entry.Device); err != nil {
			return
		}
		if t.rep.All.Has(id) {
			err = t.add(c.AddRedistribute(entry.Proto, entry.ID, owner.Proto, owner.ID))
		} else {
			err = t.add(c.RemoveRedistribute(entry.Proto, entry.ID, owner.Proto, owner.ID))
		}
	})
	return err
}

// routeFilters compares the explicit per-(process, destination) filter
// constructs of the two states (Table 3 intra-device rows). Rows are
// indexed by process id but lines are emitted in self-slot order, so a
// destination whose row changed is walked by slot.
func (t *translator) routeFilters() error {
	for r, dst := range t.h.Dsts {
		origRF, newRF := t.orig.RouteFilter[r], t.rep.RouteFilter[r]
		if origRF.Equal(newRF) {
			continue
		}
		for _, s := range t.h.Slots {
			if s.Kind != arc.SlotIntraSelf || origRF.Has(s.FromProcID) == newRF.Has(s.FromProcID) {
				continue
			}
			proc := s.FromProc
			c, err := t.cfg(proc.Device)
			if err != nil {
				return err
			}
			if newRF.Has(s.FromProcID) {
				err = t.add(c.AddRouteFilter(proc.Proto, proc.ID, dst.Prefix))
			} else {
				err = t.add(c.RemoveRouteFilter(proc.Proto, proc.ID, dst.Prefix))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// staticRoutes compares the explicit static-route constructs of the two
// states (Table 3: "add static route for dst" and the inverse). A route
// present in both changes only if its distance does (harc.StaticDistance):
// a cost repair moves the distance of a route that weighs its interface's
// cost.
func (t *translator) staticRoutes() error {
	for r, dst := range t.h.Dsts {
		origRow, newRow := t.orig.Static[r], t.rep.Static[r]
		var err error
		eachStaticChange(t.orig, t.rep, r, func(id int) {
			if err != nil {
				return
			}
			s := t.h.Slots[id]
			var c *config.Config
			if c, err = t.cfg(s.FromProc.Device); err != nil {
				return
			}
			nh := s.ToIntf.Prefix.Addr()
			dist := int(t.rep.StaticDistance(r, id))
			switch {
			case !origRow.Has(id):
				err = t.add(c.AddStaticRoute(dst.Prefix, nh, dist))
			case !newRow.Has(id):
				err = t.add(c.RemoveStaticRoute(dst.Prefix, nh))
			default:
				err = t.add(c.SetStaticDistance(dst.Prefix, nh, dist))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// eachStaticChange calls fn, in ascending slot id, for every static route
// of destination row r that the two states disagree on: present in one
// only, or present in both at different distances.
func eachStaticChange(a, b *harc.State, r int, fn func(id int)) {
	ra, rb := a.Static[r], b.Static[r]
	for wi, w := range ra {
		changed := w ^ rb[wi]
		for both := w & rb[wi]; both != 0; both &= both - 1 {
			id := wi<<6 + bits.TrailingZeros64(both)
			if a.StaticDistance(r, id) != b.StaticDistance(r, id) {
				changed |= both & -both
			}
		}
		for ; changed != 0; changed &= changed - 1 {
			fn(wi<<6 + bits.TrailingZeros64(changed))
		}
	}
}

// interfaceCosts emits "ip ospf cost" edits for cost variables that
// changed and back at least one adjacency edge in the repaired aETG
// (costs that only back static routes are carried on the static lines).
func (t *translator) interfaceCosts() error {
	changed := map[string]bool{}
	for ck, v := range t.rep.Cost {
		if t.orig.Cost[ck] != v {
			changed[ck] = true
		}
	}
	if len(changed) == 0 {
		return nil
	}
	emitted := map[string]bool{}
	for id, s := range t.h.Slots {
		if s.Kind != arc.SlotInterDevice {
			continue
		}
		ck := s.CostKey()
		if !changed[ck] || emitted[ck] || !t.rep.All.Has(id) {
			continue
		}
		emitted[ck] = true
		c, err := t.cfg(s.FromIntf.Device)
		if err != nil {
			return err
		}
		if err := t.add(c.SetInterfaceCost(s.FromIntf.Name, int(t.rep.Cost[ck]))); err != nil {
			return err
		}
	}
	return nil
}

// acls handles tcETG deviations (Table 2; Table 3: "remove tc from ACL"
// and the inverse), one slot at a time (aclEdit). A slot's deviation can
// change only where the class's row or the slot's parent changed, so each
// class visits the slots at which its row or its destination's changed,
// and its source attachments when its destination's route filters
// changed.
func (t *translator) acls() error {
	for r := range t.h.TCs {
		d := t.h.DstOf(r)
		origM, newM, origDM, newDM := t.orig.TC[r], t.rep.TC[r], t.orig.Dst[d], t.rep.Dst[d]
		var src []int32 // ascending, merged into the walk word by word
		if !t.orig.RouteFilter[d].Equal(t.rep.RouteFilter[d]) {
			src = t.h.SrcSlots(r)
		}
		for wi := range newM {
			w := (origM[wi] ^ newM[wi]) | (origDM[wi] ^ newDM[wi]) // ^ and | share a precedence level
			for ; len(src) > 0 && int(src[0])>>6 == wi; src = src[1:] {
				w |= 1 << (src[0] & 63)
			}
			for ; w != 0; w &= w - 1 {
				if err := t.aclEdit(r, wi<<6+bits.TrailingZeros64(w)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// aclEdit writes class row r's ACL change at slot id: a class deviates at
// a slot its row lacks although the slot's parent has it
// (harc.State.Deviates), and the deny goes to the slot's deny site
// (arc.Slot.DenySite). A deviation the repair makes adds a deny. A slot
// the repair makes present loses any deny that blocks the class there,
// as the original row cannot show one behind an absent parent. A stale
// deny whose parent also vanished stays: Table 2 charges no change for a
// deviation that continues.
func (t *translator) aclEdit(r, id int) error {
	add := t.rep.Deviates(r, id) && !t.orig.Deviates(r, id)
	remove := t.rep.TC[r].Has(id) && !t.orig.TC[r].Has(id)
	intf, dir := t.h.Slots[id].DenySite()
	if intf == nil || !add && !remove {
		return nil
	}
	c, err := t.cfg(intf.Device)
	if err != nil {
		return err
	}
	tc := t.h.TCs[r]
	if add {
		return t.add(c.AddACLDeny(intf.Name, dir, tc.Src.Prefix, tc.Dst.Prefix))
	}
	return t.add(c.RemoveACLDeny(intf.Name, dir, tc.Src.Prefix, tc.Dst.Prefix))
}

// waypoints records middlebox changes and mirrors them into the config
// (a "waypoint" marker on one endpoint interface), in link-name order
// (link id breaking ties between parallel links).
func (t *translator) waypoints() error {
	var changed []int
	bitset.EachDiff(t.orig.Waypoint, t.rep.Waypoint, func(link int) { changed = append(changed, link) })
	links := t.h.Links
	sort.SliceStable(changed, func(i, j int) bool { return links[changed[i]].Name() < links[changed[j]].Name() })
	for _, link := range changed {
		l, newWP := links[link], t.rep.Waypoint.Has(link)
		c, err := t.cfg(l.A.Device)
		if err != nil {
			return err
		}
		// Waypoint markers are tracked separately from line counts; the
		// mirroring lines go to WaypointLines, not Lines.
		mirrored, err := c.SetWaypoint(l.A.Name, newWP)
		if err != nil {
			return err
		}
		t.plan.Waypoints = append(t.plan.Waypoints, WaypointChange{Link: l.Name(), Add: newWP})
		t.plan.WaypointLines = append(t.plan.WaypointLines, mirrored)
	}
	return nil
}

// ImpactedTCs returns the traffic classes whose forwarding behavior the
// repair touches: any tcETG presence change, a cost change on an edge in
// the class's ETG, or a waypoint change on a link in its ETG (the metric
// of Figure 11a).
func ImpactedTCs(h *harc.HARC, orig, repaired *harc.State) []topology.TrafficClass {
	changedCosts := map[string]bool{}
	for ck, v := range repaired.Cost {
		if orig.Cost[ck] != v {
			changedCosts[ck] = true
		}
	}
	var out []topology.TrafficClass
	for r, tc := range h.TCs {
		newM := repaired.TC[r]
		impacted := !orig.TC[r].Equal(newM)
		if !impacted {
			newM.Each(func(id int) {
				s := h.Slots[id]
				if s.Kind == arc.SlotInterDevice &&
					(changedCosts[s.CostKey()] || orig.Waypoint.Has(s.LinkID) != repaired.Waypoint.Has(s.LinkID)) {
					impacted = true
				}
			})
		}
		if impacted {
			out = append(out, tc)
		}
	}
	return out
}

// ApplyPlan replays a plan's recorded line changes (including the
// waypoint-mirroring lines) onto a set of parsed configurations. Translate
// already mutates the configurations it is given; ApplyPlan exists to
// replay the same edits onto an independent copy — e.g. to check that the
// recorded patch, and nothing else, reproduces the repaired behavior.
func ApplyPlan(cfgs map[string]*config.Config, plan *Plan) error {
	apply := func(lc config.LineChange) error {
		c := cfgs[lc.Device]
		if c == nil {
			return fmt.Errorf("translate: apply: no configuration for device %s", lc.Device)
		}
		return c.Apply(lc)
	}
	for _, lc := range plan.Lines {
		if err := apply(lc); err != nil {
			return err
		}
	}
	for _, group := range plan.WaypointLines {
		for _, lc := range group {
			if err := apply(lc); err != nil {
				return err
			}
		}
	}
	return nil
}

// CloneConfigs deep-copies parsed configurations with config.Config.Clone,
// so that Translate can edit the copies and leave the originals as they
// were. A copy shares no slice or stanza with its original, and a copy
// of a parsed configuration equals what re-parsing its printed form
// gives. The error is always nil; it stays for the callers that check it.
func CloneConfigs(cfgs map[string]*config.Config) (map[string]*config.Config, error) {
	out := make(map[string]*config.Config, len(cfgs))
	for name, c := range cfgs {
		out[name] = c.Clone()
	}
	return out, nil
}
