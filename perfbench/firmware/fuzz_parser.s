# Fuzz workload firmware (fuzz-sim, fuzz-remote); assembled with kat.s.
#
# Every exec first runs the AES-128 and SHA-256 known-answer tests of
# kat.s, so each run drives real peripheral work over MMIO. Then it parses
# the fuzzed input at 0x10000000 as a record: byte 0 is the type, byte 1
# the payload length, the payload follows. Records of odd type are copied
# into the 16-byte buffer that ends RAM (0x1003fff0). The copy trusts the
# length byte, so any length above 16 stores past the end of RAM at
# `overflow_store`: the planted bug. The benchmark's own predicate for a
# true finding is (input[0] & 1) == 1 && input[1] > 16.
_start:
  call kat_aes
  call kat_sha
parse:
  li t0, 0x10000000
  lbu t1, 0(t0)            # record type
  andi t1, t1, 1
  bnez t1, blob
  j done
blob:
  lbu t1, 1(t0)            # payload length (trusted)
  li t2, 0x1003fff0        # 16-byte buffer at the end of RAM
  li t3, 0
copy:
  beq t3, t1, done
  add t4, t0, t3
  lbu t5, 2(t4)
  add t6, t2, t3
overflow_store:
  sb t5, 0(t6)
  addi t3, t3, 1
  j copy
done:
  li t0, 0x50000004        # host exit
  sw zero, 0(t0)

