package zns

import (
	"bytes"
	"testing"

	"raizn/internal/vclock"
)

// TestPayloadCopiedAtSubmit states the rule the array's reused write
// buffers rest on (raizn's parity images and partial-parity frames,
// ppengine's stride buffer): every write entry point copies its payload
// into device memory before it returns.
// Each case scribbles over its source the moment the call returns, before
// the command has completed, and the device must still hold the original
// bytes: read back, and again after a power cut that keeps every submitted
// sector (PowerLossAt) and a remount of the zone.
func TestPayloadCopiedAtSubmit(t *testing.T) {
	cfg := extTestConfig()
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xEE
		}
	}
	cases := []struct {
		name   string
		submit func(d *Device, src []byte) *vclock.Future
	}{
		{"WriteSpan", func(d *Device, src []byte) *vclock.Future {
			return d.WriteSpan(nil, nil, 0, src, 0)
		}},
		{"WritevSpan", func(d *Device, src []byte) *vclock.Future {
			h := len(src) / 2
			return d.WritevSpan(nil, nil, 0, [][]byte{src[:h], src[h:]}, 0)
		}},
		{"AppendSpan", func(d *Device, src []byte) *vclock.Future {
			_, fut := d.AppendSpan(nil, nil, 0, src, 0)
			return fut
		}},
		{"WriteZRWASpan", func(d *Device, src []byte) *vclock.Future {
			return d.WriteZRWASpan(nil, nil, 0, src, 0)
		}},
		{"SubmitBatch", func(d *Device, src []byte) *vclock.Future {
			h := len(src) / 2
			cmds := []Cmd{
				{Op: CmdWrite, Sector: 0, Data: src[:h]},
				{Op: CmdAppend, Zone: 0, Data: src[h:]},
			}
			d.SubmitBatch(cmds)
			return cmds[1].Fut
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, cfg, func(c *vclock.Clock, d *Device) {
				want := pattern(cfg, 4, 0x35)
				src := bytes.Clone(want)
				fut := tc.submit(d, src)
				scribble(src)
				if fut.Done() {
					t.Fatal("command completed at submit; the scribble proves nothing")
				}
				check := func(when string) {
					t.Helper()
					if got := mustRead(t, d, 0, 4); !bytes.Equal(got, want) {
						t.Errorf("%s: device holds the scribbled source, not the submitted bytes", when)
					}
				}
				check("before completion")
				if err := fut.Wait(); err != nil {
					t.Fatal(err)
				}
				d.PowerLossAt(map[int]int64{0: 4})
				check("after power loss")
			})
		})
	}
}
