package zns

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"raizn/internal/vclock"
)

// scribble overwrites b, standing in for a caller that reuses its buffer.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// TestPayloadOwnedUntilCompletion states the contract of the deferred write
// entry points (Write, Writev, Append): the payload is the device's until
// the command's future completes, and the caller's again from that moment.
// Each case scribbles over its source from the future's Subscribe — the
// first instant the contract releases it — and the device must hold the
// submitted bytes: read back, and again after a power cut (the writes are
// FUA, so they survive it). Writev's case also points the caller's scatter
// list elsewhere the moment the call returns: the record keeps its own copy
// of the list. Each case runs with GOMAXPROCS=1, where the completion does
// the whole copy, and with the process's own setting, where the copier
// races it.
func TestPayloadOwnedUntilCompletion(t *testing.T) {
	cfg := testConfig()
	cases := []struct {
		name   string
		submit func(d *Device, src []byte) *vclock.Future
	}{
		{"WriteSpan", func(d *Device, src []byte) *vclock.Future {
			return d.WriteSpan(nil, nil, 0, src, FUA)
		}},
		{"WritevSpan", func(d *Device, src []byte) *vclock.Future {
			h := len(src) / 2
			segs := [][]byte{src[:h], src[h:]}
			fut := d.WritevSpan(nil, nil, 0, segs, FUA)
			junk := bytes.Repeat([]byte{0xDD}, h)
			segs[0], segs[1] = junk, junk
			return fut
		}},
		{"AppendSpan", func(d *Device, src []byte) *vclock.Future {
			_, fut := d.AppendSpan(nil, nil, 0, src, FUA)
			return fut
		}},
	}
	for _, procs := range []int{1, 0} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				run(t, cfg, func(c *vclock.Clock, d *Device) {
					want := pattern(cfg, 8, 0x35)
					src := bytes.Clone(want)
					fut := tc.submit(d, src)
					if fut.Done() {
						t.Fatal("command completed at submit; the scribble proves nothing")
					}
					fut.Subscribe(func(error) { scribble(src) })
					if err := fut.Wait(); err != nil {
						t.Fatal(err)
					}
					check := func(when string) {
						t.Helper()
						if got := mustRead(t, d, 0, 8); !bytes.Equal(got, want) {
							t.Errorf("%s: device holds the scribbled source, not the submitted bytes", when)
						}
					}
					check("after completion")
					d.PowerLoss(nil)
					check("after power loss")
				})
			})
		}
	}
}

// TestPayloadCopiedAtSubmit states the rule the two write paths that still
// copy at submit keep: a ZRWA write (the ZRWA flag on WriteSpan or
// WritevSpan), which the zraid engine's slot writes are, and the batched
// commands of PrepareBatch. Each case scribbles over its source the moment
// the call returns, before the command has completed, and the device must
// still hold the original bytes: read back, and again after a power cut
// that keeps every submitted sector (PowerLossAt).
func TestPayloadCopiedAtSubmit(t *testing.T) {
	cfg := extTestConfig()
	cases := []struct {
		name   string
		submit func(d *Device, src []byte) *vclock.Future
	}{
		{"ZRWAWriteSpan", func(d *Device, src []byte) *vclock.Future {
			return d.WriteSpan(nil, nil, 0, src, ZRWA)
		}},
		{"ZRWAWritevSpan", func(d *Device, src []byte) *vclock.Future {
			h := len(src) / 2
			return d.WritevSpan(nil, nil, 0, [][]byte{src[:h], src[h:]}, ZRWA)
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
