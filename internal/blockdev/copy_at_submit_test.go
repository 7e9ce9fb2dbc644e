package blockdev

import (
	"bytes"
	"testing"

	"raizn/internal/vclock"
)

// TestPayloadCopiedAtSubmit is the block device's half of the rule zns
// states in its test of the same name: a write copies its payload into
// device memory before the call returns. The source is scribbled over
// while the command is still in flight; the device must hold the original
// bytes, read back and again after a flush and a power loss.
func TestPayloadCopiedAtSubmit(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		want := pattern(cfg, 4, 0x35)
		src := bytes.Clone(want)
		fut := d.Write(100, src, 0)
		for i := range src {
			src[i] = 0xEE
		}
		if fut.Done() {
			t.Fatal("command completed at submit; the scribble proves nothing")
		}
		if got := mustRead(t, d, 100, 4); !bytes.Equal(got, want) {
			t.Error("device holds the scribbled source before completion")
		}
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush().Wait(); err != nil {
			t.Fatal(err)
		}
		d.PowerLoss()
		if got := mustRead(t, d, 100, 4); !bytes.Equal(got, want) {
			t.Error("device holds the scribbled source after power loss")
		}
	})
}
