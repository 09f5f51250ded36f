package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"legosdn/internal/controller"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// The fabric every workload runs on: numSwitches unconnected switches
// with hostsPerSwitch hosts each. Traffic never crosses switches, so a
// PacketIn's frame is released on the switch it arrived at and the
// learning switch's state is bounded by numSwitches*hostsPerSwitch MACs.
const (
	numSwitches    = 4
	hostsPerSwitch = 16
	numHosts       = numSwitches * hostsPerSwitch
)

// poisonTOS in a PacketIn's IP header makes benchApp panic inside its
// stub: the deterministic bug the fault phases inject.
const poisonTOS = 0xfc

type fabric struct {
	net   *netsim.Network
	hosts [numHosts]*netsim.Host
}

// hostIndex numbers hosts 0..numHosts-1, switch-major.
func hostIndex(sw, h int) int { return sw*hostsPerSwitch + h }

// hostPort is the switch port host h of any switch hangs off.
func hostPort(h int) uint16 { return uint16(h + 1) }

func dpidOf(sw int) uint64 { return uint64(sw + 1) }

// newFabric builds the network; receive is called on a switch's control
// goroutine for every frame a host accepts.
func newFabric(receive func(host int, f *netsim.Frame)) (*fabric, error) {
	fab := &fabric{net: netsim.NewNetwork(nil)}
	for sw := 0; sw < numSwitches; sw++ {
		fab.net.AddSwitch(dpidOf(sw))
		for h := 0; h < hostsPerSwitch; h++ {
			i := hostIndex(sw, h)
			host, err := fab.net.AddHost(fmt.Sprintf("h%d", i), netsim.HostMAC(i+1), netsim.HostIP(i+1),
				dpidOf(sw), hostPort(h))
			if err != nil {
				return nil, err
			}
			host.Receive = func(f *netsim.Frame) { receive(i, f) }
			fab.hosts[i] = host
		}
	}
	return fab, nil
}

// clearReceived drops the hosts' delivery logs, which netsim otherwise
// grows by one frame per event for the whole run.
func (fab *fabric) clearReceived() {
	for _, h := range fab.hosts {
		h.ClearReceived()
	}
}

// Event ids travel in the frame's TCP ports so the data plane can tell
// which PacketIn a released frame answers. The destination port keeps
// its top bit set: ids never collide with the firewall's deny rule
// (TCP/22) or any other well-known port.
const maxEventID = 1<<31 - 1

func portsOf(id uint32) (sport, dport uint16) {
	return uint16(id >> 15), 0x8000 | uint16(id&0x7fff)
}

func idOf(sport, dport uint16) uint32 {
	return uint32(sport)<<15 | uint32(dport&0x7fff)
}

// frameID extracts the event id from the Ethernet/IPv4/TCP bytes of a
// PacketIn or PacketOut payload; ok is false for anything else.
func frameID(data []byte) (id uint32, ok bool) {
	if len(data) < 38 || binary.BigEndian.Uint16(data[12:14]) != netsim.EtherTypeIPv4 {
		return 0, false
	}
	return idOf(binary.BigEndian.Uint16(data[34:36]), binary.BigEndian.Uint16(data[36:38])), true
}

// framePoisoned reports whether a PacketIn payload carries the poison
// marker in its IP TOS byte.
func framePoisoned(data []byte) bool {
	return len(data) > 15 && binary.BigEndian.Uint16(data[12:14]) == netsim.EtherTypeIPv4 && data[15] == poisonTOS
}

// evKind is what one generated event asks of the control plane.
type evKind uint8

const (
	evLearned     evKind = iota // PacketIn to a learned MAC: FlowMod + PacketOut
	evUnlearned                 // PacketIn to a MAC nobody learned: flood only
	evPortStatus                // PortStatus modify on a host port, no state change
	evFlowRemoved               // FlowRemoved for a rule no app installed
)

func (k evKind) packetIn() bool { return k == evLearned || k == evUnlearned }

// evSpec is one entry of the seeded event schedule.
type evSpec struct {
	kind     evKind
	sw       int
	src, dst int // host numbers within the switch
}

// schedule is the deterministic event stream of one run: the n-th spec
// depends only on the seed, the workload's mix and n, never on timing.
type schedule struct {
	rng     *rand.Rand
	mixed   bool // fanout4's 80/10/5/5 mix; otherwise evLearned only
	talkers int  // hosts 0..talkers-1 send; the rest stay silent, so unlearned
	n       uint64
}

func newSchedule(seed int64, mixed bool) *schedule {
	s := &schedule{rng: rand.New(rand.NewSource(seed)), mixed: mixed, talkers: hostsPerSwitch}
	if mixed {
		s.talkers = hostsPerSwitch - 2
	}
	return s
}

// next returns the following event. Switches take turns, so k
// outstanding events spread k/numSwitches per switch.
func (s *schedule) next() evSpec {
	spec := evSpec{kind: evLearned, sw: int(s.n % numSwitches)}
	s.n++
	if s.mixed {
		switch p := s.rng.Intn(100); {
		case p < 80:
		case p < 90:
			spec.kind = evUnlearned
		case p < 95:
			spec.kind = evPortStatus
		default:
			spec.kind = evFlowRemoved
		}
	}
	spec.src = s.rng.Intn(s.talkers)
	switch spec.kind {
	case evUnlearned:
		spec.dst = s.talkers + s.rng.Intn(hostsPerSwitch-s.talkers)
	default:
		spec.dst = s.rng.Intn(s.talkers - 1)
		if spec.dst >= spec.src {
			spec.dst++
		}
	}
	return spec
}

// nextPacketIn skips ahead to the next PacketIn spec.
func (s *schedule) nextPacketIn() evSpec {
	for {
		if spec := s.next(); spec.kind.packetIn() {
			return spec
		}
	}
}

// packetIn builds the PacketIn event for spec, carrying id; tos is 0
// or poisonTOS.
func (fab *fabric) packetIn(spec evSpec, id uint32, tos uint8) controller.Event {
	src := fab.hosts[hostIndex(spec.sw, spec.src)]
	dst := fab.hosts[hostIndex(spec.sw, spec.dst)]
	sport, dport := portsOf(id)
	f := netsim.TCPFrame(src, dst, sport, dport, nil)
	f.NwTos = tos
	data := f.Marshal()
	return controller.Event{
		Kind: controller.EventPacketIn,
		DPID: dpidOf(spec.sw),
		Message: &openflow.PacketIn{
			BufferID: openflow.BufferIDNone,
			TotalLen: uint16(len(data)),
			InPort:   hostPort(spec.src),
			Reason:   openflow.PacketInReasonNoMatch,
			Data:     data,
		},
	}
}

// ghostMAC is a destination no host owns: FlowRemoved events name a
// rule for it, so NetLog's shadow and the stats collector see a
// well-formed message that matches nothing the learning switch installed.
var ghostMAC = openflow.EthAddr{0x0a, 0xff, 0, 0, 0, 1}

// control builds the PortStatus or FlowRemoved event for spec.
func (fab *fabric) control(spec evSpec, id uint32) controller.Event {
	ev := controller.Event{DPID: dpidOf(spec.sw)}
	switch spec.kind {
	case evPortStatus:
		ev.Kind = controller.EventPortStatus
		ev.Message = &openflow.PortStatus{
			Reason: openflow.PortReasonModify,
			Desc: openflow.PhyPort{
				PortNo: hostPort(spec.src),
				HWAddr: openflow.EthAddr{0x02, 0, 0, 0, byte(dpidOf(spec.sw)), byte(hostPort(spec.src))},
				Name:   fmt.Sprintf("s%d-eth%d", dpidOf(spec.sw), hostPort(spec.src)),
				Curr:   1,
			},
		}
	case evFlowRemoved:
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlDst
		m.DlDst = ghostMAC
		ev.Kind = controller.EventFlowRemoved
		ev.Message = &openflow.FlowRemoved{
			Match: m, Cookie: uint64(id), Priority: 10,
			Reason: openflow.FlowRemovedIdleTimeout, DurationSec: 30, IdleTimeout: 30,
			PacketCount: uint64(spec.src + 1), ByteCount: uint64(spec.src+1) * 64,
		}
	}
	return ev
}
