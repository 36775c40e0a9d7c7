package bufpool_test

import (
	"testing"

	"nexus/internal/bufpool"
	"nexus/internal/frag"
	"nexus/internal/wire"
)

// TestTopClassHoldsDefaultFrame pins where the classes stop: the top class is
// the first that holds the largest frame a context with default options
// builds, frag.DefaultMaxMessage of payload plus the largest wire header.
func TestTopClassHoldsDefaultFrame(t *testing.T) {
	frame := frag.DefaultMaxMessage + wire.MaxFrameLen() - wire.MaxPayload
	top, below := bufpool.ClassSize(bufpool.NClasses-1), bufpool.ClassSize(bufpool.NClasses-2)
	if top < frame {
		t.Errorf("top class %d B cannot hold a %d B default frame", top, frame)
	}
	if below >= frame {
		t.Errorf("class %d B already holds a %d B default frame; the top class %d B is one too many",
			below, frame, top)
	}
}
