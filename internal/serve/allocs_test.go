package serve

import (
	"net"
	"testing"

	"edgehd/internal/core"
	"edgehd/internal/hdc"
	"edgehd/internal/rng"
	"edgehd/internal/telemetry"
	"edgehd/internal/wire"
)

// TestAllocs pins the heap allocations of one served query round trip
// over net.Pipe with a Registry attached: the client's query write and
// reply read, admission, batching, scoring and the reply write, for a
// k=2 D=2048 model. Each ceiling is today's measured count; a change
// that earns a lower count lowers it.
func TestAllocs(t *testing.T) {
	const d = 2048
	r := rng.New(1)
	model, err := core.NewModel(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		for j := 0; j < 10; j++ {
			model.Add(c, hdc.RandomBipolar(d, r))
		}
	}
	reg := NewRegistry()
	if err := reg.Set("default", model); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Registry: reg, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	client, conn := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(conn) }()
	t.Cleanup(func() {
		_ = client.Close()
		_ = srv.Close()
		<-served
	})
	if err := wire.Write(client, wire.Message{Header: wire.Header{Type: wire.MsgHello}, Text: "default"}); err != nil {
		t.Fatal(err)
	}
	query := wire.Message{Header: wire.Header{Type: wire.MsgQuery}, Bipolar: hdc.RandomBipolar(d, r)}
	for _, tc := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"query round trip", 25, func() {
			if err := wire.Write(client, query); err != nil {
				t.Fatal(err)
			}
			if msg, err := wire.Read(client); err != nil || msg.Header.Type != wire.MsgPredict {
				t.Fatalf("reply %+v, err %v", msg.Header, err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
