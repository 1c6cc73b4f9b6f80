package mpi

import (
	"fmt"
	"testing"
)

// benchWorldTCP builds an n-process TCP world for benchmarking and fails
// the benchmark on setup errors.
func benchWorldTCP(b *testing.B, n int) (*World, func()) {
	b.Helper()
	c := testCluster(n)
	w, closeT, err := NewWorldTCPOpts(c, OneProcessPerMachine(c), TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return w, func() { _ = closeT() }
}

// BenchmarkTCPPingPong guards the low-allocation wire path: allocs/op
// covers frame building, the socket pump's header+payload reads and the
// mailbox hand-off for b.N round trips. Run with -benchmem; the pooled
// path should sit far below one payload allocation per message.
func BenchmarkTCPPingPong(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		for _, pooled := range []bool{true, false} {
			name := fmt.Sprintf("size%d/pooled=%v", size, pooled)
			b.Run(name, func(b *testing.B) {
				SetBufferPooling(pooled)
				defer SetBufferPooling(true)
				w, closeT := benchWorldTCP(b, 2)
				defer closeT()
				b.ReportAllocs()
				b.ResetTimer()
				err := w.Run(func(p *Proc) error {
					data := make([]byte, size)
					comm := p.CommWorld()
					for i := 0; i < b.N; i++ {
						if p.Rank() == 0 {
							comm.Send(1, 0, data)
							comm.Recv(1, 0)
						} else {
							comm.Recv(0, 0)
							comm.Send(0, 0, data)
						}
					}
					return nil
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkInProcessPingPong measures the in-process mailbox path
// (indexed lookup, pooled envelopes, sender copy).
func BenchmarkInProcessPingPong(b *testing.B) {
	for _, size := range []int{64, 65536} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			c := testCluster(2)
			w := NewWorld(c, OneProcessPerMachine(c))
			b.ReportAllocs()
			b.ResetTimer()
			err := w.Run(func(p *Proc) error {
				data := make([]byte, size)
				comm := p.CommWorld()
				for i := 0; i < b.N; i++ {
					if p.Rank() == 0 {
						comm.Send(1, 0, data)
						comm.Recv(1, 0)
					} else {
						comm.Recv(0, 0)
						comm.Send(0, 0, data)
					}
				}
				return nil
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMailboxAnySource stresses the indexed mailbox under wildcard
// receives with many queued senders: rank 0 drains n-1 senders' bursts
// through AnySource. Before the (ctx,src)-indexed queues this scanned a
// single linear queue per match.
func BenchmarkMailboxAnySource(b *testing.B) {
	const n = 8
	c := testCluster(n)
	w := NewWorld(c, OneProcessPerMachine(c))
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(p *Proc) error {
		comm := p.CommWorld()
		data := make([]byte, 256)
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				for j := 0; j < n-1; j++ {
					comm.Recv(AnySource, 0)
				}
			} else {
				comm.Send(0, 0, data)
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBacklogDrain measures taking messages off a deep per-pair
// backlog, the shape of matmul's pivot fan-out: per op, rank 0 queues 256
// messages to rank 1, signals on a separate communicator that the burst
// is complete, and rank 1 drains them with directed receives and
// acknowledges. The handshake guarantees every receive finds the whole
// remaining burst queued ahead of it.
func BenchmarkBacklogDrain(b *testing.B) {
	const burst = 256
	c := testCluster(2)
	w := NewWorld(c, OneProcessPerMachine(c))
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(p *Proc) error {
		comm := p.CommWorld()
		ctl := comm.Dup()
		payload := make([]byte, 64)
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				for k := 0; k < burst; k++ {
					comm.SendOwned(1, 0, payload)
				}
				ctl.Send(1, 1, nil)
				ctl.Recv(1, 2)
			} else {
				ctl.Recv(0, 1)
				for k := 0; k < burst; k++ {
					comm.Recv(0, 0)
				}
				ctl.Send(0, 2, nil)
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduceAlgorithms compares wall time and allocations of the
// engine's Allreduce algorithms on an 8-rank in-process world at 256 KiB.
func BenchmarkAllreduceAlgorithms(b *testing.B) {
	const nbytes = 256 << 10
	for _, alg := range []struct {
		name string
		t    *CollTuning
	}{
		{"redbcast", &CollTuning{Allreduce: AllreduceRedBcast}},
		{"recdbl", &CollTuning{Allreduce: AllreduceRecursiveDoubling}},
		{"ring", &CollTuning{Allreduce: AllreduceRing}},
	} {
		b.Run(alg.name, func(b *testing.B) {
			c := testCluster(8)
			w := NewWorld(c, OneProcessPerMachine(c))
			w.SetCollTuning(alg.t)
			b.ReportAllocs()
			b.SetBytes(nbytes)
			b.ResetTimer()
			err := w.Run(func(p *Proc) error {
				data := make([]byte, nbytes)
				comm := p.CommWorld()
				for i := 0; i < b.N; i++ {
					comm.Allreduce(data, SumFloat64)
				}
				return nil
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
