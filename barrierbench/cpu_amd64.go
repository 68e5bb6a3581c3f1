package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002..4, read from the instruction rather than from the host's
// files.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown amd64"
	}
	var buf [48]byte
	for i := uint32(0); i < 3; i++ {
		a, b, c, d := cpuid(0x80000002+i, 0)
		for j, r := range []uint32{a, b, c, d} {
			binary.LittleEndian.PutUint32(buf[16*i+4*uint32(j):], r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(buf[:]), "\x00"))
}
