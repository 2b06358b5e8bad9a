// Package netsim is the discrete-event network substrate standing in for
// the paper's NS-3 hardware-in-the-loop setup (§VI-A). It models the
// hierarchical IoT topologies as trees of nodes joined by half-duplex
// links with a configurable medium (bandwidth, propagation latency,
// transmit energy, bit-loss rate), serializes concurrent transfers on
// shared links, and accounts every byte moved — the quantities behind
// the communication-cost results of Figs 10, 11 and 13 and the failure
// injection of Fig 12.
package netsim

import (
	"time"
)

// Medium describes a link technology. The five entries below are the
// mediums of §VI-E with the paper's effective bandwidths.
type Medium struct {
	Name string
	// BandwidthBps is the effective application-level bandwidth in
	// bits per second.
	BandwidthBps float64
	// Latency is the per-hop propagation plus protocol latency.
	Latency time.Duration
	// JoulesPerByte is the transmit+receive energy per payload byte,
	// order-of-magnitude values from radio/NIC datasheets: wired NICs
	// are the cheapest per byte, Bluetooth the most expensive.
	JoulesPerByte float64
}

// Predefined mediums (§VI-E). Effective bandwidths follow the paper:
// 802.11ac is quoted at 46.5 Mbps effective, 802.11n at the Raspberry
// Pi 3B+'s practical 23.5 Mbps, Bluetooth 4.0 at 1 Mbps.
func Wired1G() Medium {
	return Medium{Name: "Wired-1Gbps", BandwidthBps: 1e9, Latency: 100 * time.Microsecond, JoulesPerByte: 5e-9}
}

// Wired500M is the 500 Mbps wired medium.
func Wired500M() Medium {
	return Medium{Name: "Wired-500Mbps", BandwidthBps: 500e6, Latency: 100 * time.Microsecond, JoulesPerByte: 5e-9}
}

// WiFiAC is IEEE 802.11ac at the paper's 46.5 Mbps effective rate.
func WiFiAC() Medium {
	return Medium{Name: "WiFi-802.11ac", BandwidthBps: 46.5e6, Latency: 2 * time.Millisecond, JoulesPerByte: 1e-7}
}

// WiFiN is IEEE 802.11n at the RPi 3B+'s practical 23.5 Mbps.
func WiFiN() Medium {
	return Medium{Name: "WiFi-802.11n", BandwidthBps: 23.5e6, Latency: 3 * time.Millisecond, JoulesPerByte: 1.5e-7}
}

// Bluetooth4 is Bluetooth 4.0 at 1 Mbps practical throughput.
func Bluetooth4() Medium {
	return Medium{Name: "Bluetooth-4.0", BandwidthBps: 1e6, Latency: 10 * time.Millisecond, JoulesPerByte: 3e-7}
}

// Mediums returns the five evaluation mediums in the order of Fig 11.
func Mediums() []Medium {
	return []Medium{Wired1G(), Wired500M(), WiFiAC(), WiFiN(), Bluetooth4()}
}

// TransferSeconds returns the serialization delay of moving n bytes over
// the medium, excluding latency.
func (m Medium) TransferSeconds(bytes int) float64 {
	if m.BandwidthBps <= 0 {
		return 0
	}
	return float64(bytes) * 8 / m.BandwidthBps
}
