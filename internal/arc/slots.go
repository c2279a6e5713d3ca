// Package arc implements the Abstract Representation for Control planes:
// extended topology graphs (ETGs) built from a network model (Algorithm 1
// in the CPR paper) and the policy verifiers of Table 1.
//
// The central concept is the edge *slot*: a potential ETG edge backed by a
// physical link or an intra-device channel. ETGs at every level (aETG /
// dETG / tcETG) are views of the same slot table, which gives each edge an
// explicit provenance (which control-plane construct explains it). A
// slot's aETG presence is read off the configuration here (PresentAll);
// its dETG and tcETG presence are derived from the per-destination
// constructs by internal/harc, in one place.
package arc

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/topology"
)

// SlotKind classifies candidate ETG edges.
type SlotKind int

// Slot kinds.
const (
	// SlotInterDevice is procO -> proc'I over a physical link.
	SlotInterDevice SlotKind = iota
	// SlotIntraSelf is procI -> procO within one process.
	SlotIntraSelf
	// SlotIntraRedist is proc'I -> procO between two processes on one
	// device (route redistribution).
	SlotIntraRedist
	// SlotSource is SRC -> procO on a device attached to a source subnet.
	SlotSource
	// SlotDest is procI -> DST on a device attached to a destination
	// subnet.
	SlotDest
)

func (k SlotKind) String() string {
	switch k {
	case SlotInterDevice:
		return "inter"
	case SlotIntraSelf:
		return "self"
	case SlotIntraRedist:
		return "redist"
	case SlotSource:
		return "src"
	case SlotDest:
		return "dst"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Slot is a candidate ETG edge together with the control-plane context
// needed to decide its presence at each level and to translate repairs.
type Slot struct {
	Kind SlotKind
	// FromProc/ToProc are the processes at the tail/head of the edge.
	// For SlotSource only ToProc is set; for SlotDest only FromProc.
	FromProc *topology.Process
	ToProc   *topology.Process
	// Link and the directed interfaces for SlotInterDevice.
	Link     *topology.Link
	FromIntf *topology.Interface // egress interface on the tail device
	ToIntf   *topology.Interface // ingress interface on the head device
	// Subnet and its attachment interface for SlotSource / SlotDest.
	Subnet *topology.Subnet
	Intf   *topology.Interface

	// Integer identity, assigned by NewTable. ID is the slot's index in
	// Table.Slots — the bit position of the slot in every harc.State row.
	// From/To are its tail and head in the table's shared vertex space.
	// FromProcID/ToProcID index Table.Procs and LinkID indexes
	// Table.Links; each is -1 when the slot has no such end.
	ID         int
	From, To   graph.V
	FromProcID int
	ToProcID   int
	LinkID     int
	// Canon is the id of the canonical direction of the slot's routing
	// adjacency: both directed slots over a link share one aETG variable
	// and one configuration change, carried by the direction with the
	// smaller key (the lower id). Other kinds are their own canon.
	Canon int

	tab     *Table
	reverse *Slot // the opposite direction of an inter-device slot
	// The ACLs traffic crossing the slot must pass (nil: none) — the
	// egress and ingress lists of an inter-device slot's two interfaces,
	// the inbound list of a source attachment, the outbound list of a
	// destination attachment — then the key, the cost key and whether the
	// routing adjacency is up: all fixed by the configuration NewTable
	// read.
	outACL, inACL *topology.ACL
	key, costKey  string
	adjUp         bool
	// srcACL is a source attachment's inACL as an id into Table.ACLs, 0
	// for none.
	srcACL int32
}

// Table is a network's slot table with integer identity: every slot, and
// the processes, links and ETG vertices slots refer to, numbered once so
// that every per-level graph and every state row of the network indexes
// the same dense id spaces instead of hashing names.
type Table struct {
	// Slots lists every candidate edge in ascending Key() order;
	// Slots[i].ID == i.
	Slots []*Slot
	// Procs numbers the routing processes in order of first appearance as
	// a slot end (tail before head, slot order).
	Procs []*topology.Process
	// Links is the network's link list; a link's id is its index.
	Links []*topology.Link
	// Vertices names the shared ETG vertex space: SRC, DST, then
	// "<proc>:I" and "<proc>:O" per process id.
	Vertices []string
	// ACLs numbers the distinct ACLs the slots cross, after ACLs[0] == nil,
	// the list that is not there (and blocks nothing). Guarded(a) lists the
	// slots ACL a guards; Slot.SourceACL names a source attachment's.
	ACLs []*topology.ACL
	// aclSlots lists, in CSR form, the slots each ACL guards — every slot
	// but a source attachment whose egress or ingress list it is: ACL a's
	// are aclSlots[aclSlotOff[a]:aclSlotOff[a+1]], ascending. Besides source
	// attachments, these are the only slots whose presence for a traffic
	// class is not simply their presence for its destination, and a class's
	// verdict on an ACL is the same for every slot it guards.
	aclSlotOff, aclSlots []int32

	// base is the digraph every ETG of the network is a view of: all slots,
	// edge id ≡ slot id.
	base *graph.Digraph

	// flow is the skeleton of the PC3 flow network (kflow.go), built by the
	// first check on any ETG of the table.
	flowOnce sync.Once
	flow     *flowShape
}

// Vertex ids of the two endpoint vertices in every Table.
const (
	VSrc graph.V = 0
	VDst graph.V = 1
)

// vertexIn/vertexOut are process pid's incoming and outgoing vertices.
func vertexIn(pid int) graph.V  { return graph.V(2 + 2*pid) }
func vertexOut(pid int) graph.V { return graph.V(3 + 2*pid) }

// SameShape reports whether ids assigned by t and o are interchangeable:
// both tables list the same slot keys, process names and link names in
// the same order. States of two same-shape networks compare and copy row
// by row; anything else must go by key.
func (t *Table) SameShape(o *Table) bool {
	if t == o {
		return true
	}
	if len(t.Slots) != len(o.Slots) || len(t.Procs) != len(o.Procs) || len(t.Links) != len(o.Links) {
		return false
	}
	for i, s := range t.Slots {
		if s.key != o.Slots[i].key {
			return false
		}
	}
	for i, p := range t.Procs {
		if p.Name() != o.Procs[i].Name() {
			return false
		}
	}
	for i, l := range t.Links {
		if l.Name() != o.Links[i].Name() {
			return false
		}
	}
	return true
}

// SlotID returns the id of the slot with the given key, or -1.
func (t *Table) SlotID(key string) int {
	i := sort.Search(len(t.Slots), func(i int) bool { return t.Slots[i].key >= key })
	if i < len(t.Slots) && t.Slots[i].key == key {
		return i
	}
	return -1
}

// Key returns a stable identifier unique within a network.
func (s *Slot) Key() string { return s.key }

func (s *Slot) keyOf() string {
	switch s.Kind {
	case SlotInterDevice:
		return fmt.Sprintf("inter:%s>%s@%s/%s", s.FromProc.Name(), s.ToProc.Name(), s.FromIntf.Name, s.ToIntf.Name)
	case SlotIntraSelf:
		return "self:" + s.FromProc.Name()
	case SlotIntraRedist:
		return fmt.Sprintf("redist:%s>%s", s.ToProc.Name(), s.FromProc.Name())
	case SlotSource:
		return fmt.Sprintf("src:%s>%s", s.Subnet.Name, s.ToProc.Name())
	case SlotDest:
		return fmt.Sprintf("dst:%s>%s", s.FromProc.Name(), s.Subnet.Name)
	}
	return "?"
}

// CostKey identifies the shared cost variable of an inter-device slot: the
// directed egress interface ("" for every other kind). Routing protocols
// do not allow per-class or per-destination costs (paper §5.1, constraint
// 13 discussion), so every slot leaving the same interface shares one
// cost.
func (s *Slot) CostKey() string { return s.costKey }

// Slots enumerates every candidate edge slot of the network in a
// deterministic order (NewTable(n).Slots).
func Slots(n *topology.Network) []*Slot { return NewTable(n).Slots }

// NewTable enumerates every candidate edge slot of the network in a
// deterministic order and assigns the integer identities.
func NewTable(n *topology.Network) *Table {
	var slots []*Slot

	// Intra-device slots.
	for _, dev := range n.Devices() {
		for _, p := range dev.Processes {
			slots = append(slots, &Slot{Kind: SlotIntraSelf, FromProc: p})
		}
		for _, owner := range dev.Processes {
			for _, entry := range dev.Processes {
				if owner == entry {
					continue
				}
				// Edge entryI -> ownerO: present when entry redistributes
				// routes from owner. FromProc is the route owner (edge head
				// is ownerO); ToProc is the entry process.
				slots = append(slots, &Slot{Kind: SlotIntraRedist, FromProc: owner, ToProc: entry})
			}
		}
	}

	// Inter-device slots: one per direction per same-protocol process
	// pair over each physical link.
	for _, l := range n.Links {
		ends := [2][2]*topology.Interface{{l.A, l.B}, {l.B, l.A}}
		first := len(slots)
		for _, pair := range ends {
			from, to := pair[0], pair[1]
			for _, pf := range from.Device.Processes {
				for _, pt := range to.Device.Processes {
					if pf.Proto != pt.Proto {
						continue
					}
					s := &Slot{
						Kind:     SlotInterDevice,
						FromProc: pf,
						ToProc:   pt,
						Link:     l,
						FromIntf: from,
						ToIntf:   to,
					}
					// Pair the two directions of one adjacency as the link's
					// slots are laid down (a handful per link).
					for _, o := range slots[first:] {
						if o.FromProc == pt && o.ToProc == pf && o.FromIntf == to {
							s.reverse, o.reverse = o, s
						}
					}
					slots = append(slots, s)
				}
			}
		}
	}

	// Source and destination attachment slots.
	for _, dev := range n.Devices() {
		for _, intf := range dev.Interfaces() {
			if intf.Subnet == nil {
				continue
			}
			for _, p := range dev.Processes {
				slots = append(slots,
					&Slot{Kind: SlotSource, ToProc: p, Subnet: intf.Subnet, Intf: intf},
					&Slot{Kind: SlotDest, FromProc: p, Subnet: intf.Subnet, Intf: intf})
			}
		}
	}

	for _, s := range slots {
		s.key = s.keyOf()
		switch s.Kind {
		case SlotInterDevice:
			s.costKey = s.FromIntf.Device.Name + "/" + s.FromIntf.Name
			s.adjUp = s.FromProc.UsesInterface(s.FromIntf) && s.ToProc.UsesInterface(s.ToIntf) &&
				!s.FromProc.IsPassive(s.FromIntf) && !s.ToProc.IsPassive(s.ToIntf)
			s.outACL, s.inACL = s.FromIntf.Device.ACLs[s.FromIntf.OutACL], s.ToIntf.Device.ACLs[s.ToIntf.InACL]
		case SlotSource:
			s.inACL = s.Intf.Device.ACLs[s.Intf.InACL]
		case SlotDest:
			s.outACL = s.Intf.Device.ACLs[s.Intf.OutACL]
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].key < slots[j].key })

	t := &Table{Slots: slots, Links: n.Links, Vertices: []string{"SRC", "DST"}}
	procID := make(map[*topology.Process]int)
	intern := func(p *topology.Process) int {
		if p == nil {
			return -1
		}
		id, ok := procID[p]
		if !ok {
			id = len(t.Procs)
			procID[p] = id
			t.Procs = append(t.Procs, p)
			t.Vertices = append(t.Vertices, p.Name()+":I", p.Name()+":O")
		}
		return id
	}
	linkID := make(map[*topology.Link]int, len(n.Links))
	for i, l := range n.Links {
		linkID[l] = i
	}
	for i, s := range slots {
		s.tab, s.ID, s.LinkID, s.Canon = t, i, -1, i
		s.FromProcID = intern(s.FromProc)
		s.ToProcID = intern(s.ToProc)
		switch s.Kind {
		case SlotSource:
			s.From, s.To = VSrc, vertexOut(s.ToProcID)
		case SlotDest:
			s.From, s.To = vertexIn(s.FromProcID), VDst
		case SlotIntraSelf:
			s.From, s.To = vertexIn(s.FromProcID), vertexOut(s.FromProcID)
		case SlotIntraRedist:
			s.From, s.To = vertexIn(s.ToProcID), vertexOut(s.FromProcID)
		case SlotInterDevice:
			s.From, s.To = vertexOut(s.FromProcID), vertexIn(s.ToProcID)
			s.LinkID = linkID[s.Link]
		}
	}
	t.ACLs = []*topology.ACL{nil}
	var aclIDs map[*topology.ACL]int32 // made by the first ACL seen
	aclID := func(a *topology.ACL) int32 {
		if a == nil {
			return 0
		}
		id, ok := aclIDs[a]
		if !ok {
			if aclIDs == nil {
				aclIDs = make(map[*topology.ACL]int32)
			}
			id = int32(len(t.ACLs))
			aclIDs[a] = id
			t.ACLs = append(t.ACLs, a)
		}
		return id
	}
	edges := make([]graph.Edge, len(slots))
	guards := make([][2]int32, len(slots)) // (egress, ingress) ACL ids per slot
	for i, s := range slots {
		if s.reverse != nil && s.reverse.ID < s.ID {
			s.Canon = s.reverse.ID
		}
		if s.Kind != SlotSource {
			guards[i] = [2]int32{aclID(s.outACL), aclID(s.inACL)}
		}
		edges[i] = graph.Edge{From: s.From, To: s.To}
	}
	// A source attachment's inbound list guards none of the slots above;
	// a list only such attachments cross is numbered after those that do.
	for _, s := range slots {
		if s.Kind == SlotSource {
			s.srcACL = aclID(s.inACL)
		}
	}
	t.base = graph.NewOver(t.Vertices, edges)

	// Counted two entries ahead, so that after the prefix sums entry a+1 is
	// ACL a's fill cursor and ends on its end.
	off := make([]int32, len(t.ACLs)+2)
	for _, g := range guards {
		for _, a := range g {
			if a != 0 {
				off[a+2]++
			}
		}
	}
	for a := 2; a < len(off); a++ {
		off[a] += off[a-1]
	}
	t.aclSlots = make([]int32, off[len(off)-1])
	for id, g := range guards {
		for _, a := range g {
			if a != 0 {
				t.aclSlots[off[a+1]] = int32(id)
				off[a+1]++
			}
		}
	}
	t.aclSlotOff = off[:len(t.ACLs)+1]
	return t
}

// Guarded returns the ids of the slots ACL id a guards, ascending: every
// slot but a source attachment whose egress or ingress list it is.
func (t *Table) Guarded(a int32) []int32 { return t.aclSlots[t.aclSlotOff[a]:t.aclSlotOff[a+1]] }

// SourceACL returns the id in Table.ACLs of a source attachment's inbound
// ACL: 0 if it has none, or if the slot is not a source attachment.
func (s *Slot) SourceACL() int32 { return s.srcACL }

// DenySite returns where a deny that removes the slot for one traffic
// class goes: the interface and the direction ("in" or "out") of the ACL
// it is written into. An inter-device slot is denied inbound on its
// receiving interface, a source attachment inbound and a destination
// attachment outbound on the host interface. An intra-device slot has no
// deny site (nil): no ACL removes it for a class. These are the lists
// NewTable records as guarding the slot, less an inter-device slot's
// egress list.
func (s *Slot) DenySite() (*topology.Interface, string) {
	switch s.Kind {
	case SlotInterDevice:
		return s.ToIntf, "in"
	case SlotSource:
		return s.Intf, "in"
	case SlotDest:
		return s.Intf, "out"
	}
	return nil, ""
}

// ApplicableTC reports whether the slot can appear in tc's ETG: every
// slot except the attachment slots of other subnets. Inapplicable slots
// are absent from tc's state row by definition.
func (s *Slot) ApplicableTC(tc topology.TrafficClass) bool {
	switch s.Kind {
	case SlotSource:
		return s.Subnet == tc.Src
	case SlotDest:
		return s.Subnet == tc.Dst
	}
	return true
}

// ApplicableDst reports whether the slot can appear in dst's dETG: no
// source slot does, and only dst's own destination slots.
func (s *Slot) ApplicableDst(dst *topology.Subnet) bool {
	switch s.Kind {
	case SlotSource:
		return false
	case SlotDest:
		return s.Subnet == dst
	}
	return true
}

// PresentAll reports whether the slot's edge exists in the aETG, which
// models only routing adjacencies and redistribution (constructs that
// apply to all traffic classes).
func (s *Slot) PresentAll() bool {
	switch s.Kind {
	case SlotIntraSelf, SlotSource, SlotDest:
		return true
	case SlotIntraRedist:
		for _, src := range s.ToProc.RedistributesFrom {
			if src == s.FromProc {
				return true
			}
		}
		return false
	case SlotInterDevice:
		return s.adjacencyUp()
	}
	return false
}

// adjacencyUp reports whether a routing adjacency is configured over the
// slot's link: both processes run over their respective interfaces and
// neither side is passive.
func (s *Slot) adjacencyUp() bool { return s.adjUp }

// StaticBacked reports whether a static route on the tail device for dst
// points across this slot's link (next hop = head interface address).
func (s *Slot) StaticBacked(dst *topology.Subnet) *topology.StaticRoute {
	if s.Kind != SlotInterDevice {
		return nil
	}
	for _, sr := range s.FromProc.Device.Statics {
		if sr.Prefix == dst.Prefix && s.ToIntf.Prefix.IsValid() && sr.NextHop == s.ToIntf.Prefix.Addr() {
			return sr
		}
	}
	return nil
}

// Waypoint reports whether the slot's edge carries an on-path middlebox:
// inter-device edges over waypoint links, and intra-device edges on
// waypoint devices.
func (s *Slot) Waypoint() bool {
	switch s.Kind {
	case SlotInterDevice:
		return s.Link.Waypoint
	case SlotIntraSelf, SlotIntraRedist:
		return s.FromProc.Device.Waypoint
	}
	return false
}

// Device returns the device this slot's configuration lives on for
// translation purposes: the tail device for inter-device and dest slots,
// the owning device for intra slots, the attachment device for source
// slots.
func (s *Slot) Device() *topology.Device {
	switch s.Kind {
	case SlotInterDevice, SlotIntraSelf, SlotDest:
		return s.FromProc.Device
	case SlotIntraRedist, SlotSource:
		return s.ToProc.Device
	}
	return nil
}
