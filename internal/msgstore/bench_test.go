package msgstore

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkStoreContact measures a contact's store work at 8, 64 and 512
// copies: one Live read, a Get per live copy (the lookup each claim
// makes), and one Remove and Add (a copy leaving and one arriving, at an
// ID that cycles through the store). Every case warms up before timing
// and allocates nothing.
func BenchmarkStoreContact(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("copies=%d", n), func(b *testing.B) {
			s := New()
			copies := make([]*Copy, n)
			for i := range copies {
				copies[i] = copyOf(i, time.Hour)
				s.Add(copies[i])
			}
			contact := func(i int) {
				for _, c := range s.Live(0) {
					if s.Get(c.Msg.ID) != c {
						b.Fatalf("Get(%d) lost its copy", c.Msg.ID)
					}
				}
				c := copies[i%n]
				s.Remove(c.Msg.ID)
				s.Add(c)
			}
			contact(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				contact(i)
			}
		})
	}
}
