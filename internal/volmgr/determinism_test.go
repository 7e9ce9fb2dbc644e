package volmgr

import (
	"fmt"
	"testing"
	"time"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// completionInstants runs four tenants of one volume, each a closed loop
// alternating a 4-sector FUA append with an 8-sector read of what it wrote,
// on an array with one device failed, so reads reconstruct. The tenants
// start at one instant and their completions keep landing together, so
// they are woken several at a time, and the order they run in at each
// instant decides what the devices see next. It returns every op's
// completion instant, tenant by tenant.
func completionInstants(t *testing.T) [][]time.Duration {
	const tenants, ops = 4, 32
	at := make([][]time.Duration, tenants)
	clk := vclock.New()
	clk.Run(func() {
		m := NewManager(clk, Config{})
		arr := newTestArray(t, clk, m.Metrics(), "a0")
		if _, err := m.AddArray("a0", arr); err != nil {
			t.Fatal(err)
		}
		var tcs []TenantConfig
		for i := 0; i < tenants; i++ {
			tcs = append(tcs, TenantConfig{ID: fmt.Sprintf("t%d", i)})
		}
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones:   tenants,
			Engine:  EngineConfig{QueueDepth: 8, MaxInflight: 8, BatchSize: 4},
			Tenants: tcs,
		})
		if err != nil {
			t.Fatal(err)
		}
		ss, zs := v.SectorSize(), v.ZoneSectors()
		const pre = 64
		for i := 0; i < tenants; i++ {
			id, base := tcs[i].ID, int64(i)*zs
			if err := v.Write(id, base, pattern(id, base, pre, ss), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := arr.FailDevice(1); err != nil {
			t.Fatal(err)
		}
		wg := clk.NewWaitGroup()
		wg.Add(tenants)
		for i := 0; i < tenants; i++ {
			clk.Go(func() {
				defer wg.Done()
				id, base, wp := tcs[i].ID, int64(i)*zs, int64(pre)
				buf := make([]byte, 8*ss)
				for op := 0; op < ops; op++ {
					var fut *vclock.Future
					var err error
					if op%2 == 0 {
						fut, err = v.SubmitWrite(id, base+wp, pattern(id, base+wp, 4, ss), zns.FUA)
						wp += 4
					} else {
						fut, err = v.SubmitRead(id, base+int64(op*13)%(wp-8), buf)
					}
					if err == nil {
						err = fut.Wait()
					}
					if err != nil {
						t.Errorf("%s op %d: %v", id, op, err)
						return
					}
					at[i] = append(at[i], clk.Now())
				}
			})
		}
		wg.Wait()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	})
	return at
}

// TestCompletionInstantsRepeat: two runs on fresh stacks complete every op
// at the same virtual instant. Goroutines made runnable at one instant run
// in the order they were woken, not in the host scheduler's.
func TestCompletionInstantsRepeat(t *testing.T) {
	a, b := completionInstants(t), completionInstants(t)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("tenant %d completed %d ops, then %d", i, len(a[i]), len(b[i]))
		}
		for op := range a[i] {
			if a[i][op] != b[i][op] {
				t.Fatalf("tenant %d op %d completed at %v, then at %v", i, op, a[i][op], b[i][op])
			}
		}
	}
}
