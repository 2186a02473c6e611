package aggsrv

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"testing"
)

// BenchmarkDepositPath measures the server-side steady-state deposit
// path in isolation (frame decode → shard lock → exact fold), one
// frame per op. This is the 0 allocs/op pin recorded in
// BENCH_serve.json; the deposits/s metric is frame batch size over
// ns/op.
func BenchmarkDepositPath(b *testing.B) {
	for _, batch := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("b%d", batch), func(b *testing.B) {
			srv := New(Config{})
			c := srv.pool.Get().(*connState)
			body := []byte{opDeposit}
			body = binary.LittleEndian.AppendUint16(body, 5)
			body = append(body, "bench"...)
			for i := 0; i < batch; i++ {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(float64(i%251)*0x1p-8))
			}
			// Warm up buffers and the key entry.
			c.out = c.out[:4]
			if err := srv.process(c, body); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.out = c.out[:4]
				if err := srv.process(c, body); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			persec := float64(batch) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(persec, "deposits/s")
		})
	}
}

// BenchmarkServe measures end-to-end TCP throughput: clients × batch
// grid, fixed total scalars per op so ns/op is comparable across runs
// (and gateable by benchjson -compare). Reports deposits/s, the number
// of timed flush barriers of the last run (samples), and their p50
// latency when there is at least one sample and p99 only from 1000
// samples up: a p99 of fewer samples is a maximum, not a quantile.
func BenchmarkServe(b *testing.B) {
	for _, clients := range []int{1, 16, 256} {
		for _, batch := range []int{1, 64, 4096} {
			total := int64(1 << 17)
			if batch == 1 {
				// Frame-per-scalar is ~30× slower per scalar; keep the
				// cell's wall time in the same ballpark.
				total = 1 << 14
			}
			name := fmt.Sprintf("c%d_b%d", clients, batch)
			b.Run(name, func(b *testing.B) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				srv := New(Config{})
				go srv.Serve(ln)
				defer srv.Close()

				var last LoadResult
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := RunLoad(LoadConfig{
						Addr:          ln.Addr().String(),
						Clients:       clients,
						Batch:         batch,
						TotalDeposits: total,
						Key:           fmt.Sprintf("%s_%d", name, i),
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.StopTimer()
				persec := float64(total) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(persec, "deposits/s")
				b.ReportMetric(float64(last.Samples), "samples")
				if last.Samples > 0 {
					b.ReportMetric(float64(last.P50.Nanoseconds()), "p50-ns")
				}
				if last.Samples >= 1000 {
					b.ReportMetric(float64(last.P99.Nanoseconds()), "p99-ns")
				}
			})
		}
	}
}
