package netproto_test

import (
	"bytes"
	"slices"
	"testing"

	"anyopt/internal/bgp"
	"anyopt/internal/netproto"
	"anyopt/internal/probe"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// proberPackets captures the packets the measurement plane puts on the wire
// over a converged test-scale deployment: catchment requests (IPv4(ICMP)),
// RTT requests (IPv4(GRE(IPv4(ICMP)))), and the tunnelled echo replies.
func proberPackets(f *testing.F) [][]byte {
	f.Helper()
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		f.Fatal(err)
	}
	tb, err := testbed.New(topo, testbed.Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	sim := bgp.New(topo, bgp.DefaultConfig())
	tb.NewDeployment(sim, 0).AnnounceSites(1, 4)
	fab := probe.NewSimFabric(tb, sim, 0, nil)
	var capture bytes.Buffer
	if fab.Capture, err = netproto.NewPcapWriter(&capture); err != nil {
		f.Fatal(err)
	}
	p := probe.New(fab, probe.DefaultConfig(tb.OrchAddr, tb.AnycastAddrs[0]), sim.Engine.Now())
	site := tb.Site(1)
	for _, tg := range topo.Targets[:3] {
		if _, err := p.Catchment(tg.Addr); err != nil {
			f.Fatal(err)
		}
		if _, err := p.RTT(site.TunnelKey, site.TunnelAddr, site.TunnelRTT, tg.Addr); err != nil {
			f.Fatal(err)
		}
	}
	_, packets, _, err := netproto.ReadPcap(&capture)
	if err != nil {
		f.Fatal(err)
	}
	return packets
}

// FuzzNetprotoDecode feeds arbitrary bytes to every live packet parser. No
// input may panic, and any input a parser accepts must re-marshal to a fixed
// point: decode → marshal → decode yields the same header and payload, and
// marshalling that again yields the same bytes.
func FuzzNetprotoDecode(f *testing.F) {
	for _, pkt := range proberPackets(f) {
		f.Add(pkt)
		if _, grePayload, err := netproto.ParseIPv4(pkt); err == nil {
			f.Add(grePayload)
			if _, inner, err := netproto.ParseGRE(grePayload); err == nil {
				f.Add(inner)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		netproto.Dissect(data)

		var ip netproto.IPv4
		if payload, err := ip.Unmarshal(data); err == nil {
			wire, err := ip.Marshal(payload)
			if err != nil {
				t.Fatalf("IPv4 %+v accepted but does not marshal: %v", ip, err)
			}
			var again netproto.IPv4
			payload2, err := again.Unmarshal(wire)
			if err != nil || again != ip || !bytes.Equal(payload2, payload) {
				t.Fatalf("IPv4 re-decode: %+v %x (%v), want %+v %x", again, payload2, err, ip, payload)
			}
			if wire2, _ := again.Marshal(payload2); !bytes.Equal(wire2, wire) {
				t.Fatalf("IPv4 marshal not a fixed point: %x then %x", wire, wire2)
			}
		}

		var gre netproto.GRE
		if payload, err := gre.Unmarshal(data); err == nil {
			wire := gre.Marshal(payload)
			var again netproto.GRE
			payload2, err := again.Unmarshal(wire)
			if err != nil || again != gre || !bytes.Equal(payload2, payload) {
				t.Fatalf("GRE re-decode: %+v %x (%v), want %+v %x", again, payload2, err, gre, payload)
			}
			if wire2 := again.Marshal(payload2); !bytes.Equal(wire2, wire) {
				t.Fatalf("GRE marshal not a fixed point: %x then %x", wire, wire2)
			}
		}

		var echo netproto.ICMPEcho
		if err := echo.Unmarshal(data); err == nil {
			wire := echo.Marshal()
			var again netproto.ICMPEcho
			if err := again.Unmarshal(wire); err != nil || again.Type != echo.Type || again.Code != echo.Code ||
				again.ID != echo.ID || again.Seq != echo.Seq || !slices.Equal(again.Payload, echo.Payload) {
				t.Fatalf("ICMP re-decode: %+v (%v), want %+v", again, err, echo)
			}
			if wire2 := again.Marshal(); !bytes.Equal(wire2, wire) {
				t.Fatalf("ICMP marshal not a fixed point: %x then %x", wire, wire2)
			}
		}
	})
}
