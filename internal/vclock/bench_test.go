package vclock_test

import (
	"testing"

	"newtop/internal/vclock"
)

func BenchmarkLamportNext(b *testing.B) {
	l := vclock.NewLamport()
	for i := 0; i < b.N; i++ {
		_ = l.Next()
	}
}
