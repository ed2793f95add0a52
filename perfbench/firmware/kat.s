# Known-answer tests on the SoC's crypto accelerators, shared by both
# workload firmwares (the benchmark assembles each main file followed by
# this one). Both routines clobber a1..a6 only and return with `ret`.
#
#   AES-128  FIPS-197 Appendix C.1
#            key        000102030405060708090a0b0c0d0e0f
#            plaintext  00112233445566778899aabbccddeeff
#            ciphertext 69c4e0d86a7b0430d8cdb78070b4c55a
#   SHA-256  FIPS 180-4 example "abc" (one padded block)
#            digest     ba7816bf8f01cfea414140de5dae2223
#                       b00361a396177a9cb410ff61f20015ad
#
# A wrong accelerator result traps at `kat_fail` (ebreak).

# AES-128 known-answer test (accelerator at 0x40000200).
kat_aes:
  li a1, 0x40000200
  la a2, aes_key
  li a3, 0
aes_load:                  # key words -> KEY0..3, plaintext -> IN0..3
  add a4, a2, a3
  lw a5, 0(a4)
  add a6, a1, a3
  sw a5, 0x10(a6)
  lw a5, 16(a4)
  sw a5, 0x20(a6)
  addi a3, a3, 4
  li a4, 16
  bne a3, a4, aes_load
  li a5, 1
  sw a5, 0(a1)             # CTRL.start
aes_wait:
  lw a5, 4(a1)
  andi a5, a5, 2           # STATUS.done
  beqz a5, aes_wait
  la a2, aes_ct
  li a3, 0
aes_check:
  add a4, a1, a3
  lw a5, 0x30(a4)
  add a4, a2, a3
  lw a6, 0(a4)
  bne a5, a6, kat_fail
  addi a3, a3, 4
  li a4, 16
  bne a3, a4, aes_check
  sw zero, 4(a1)           # clear STATUS
  ret

# SHA-256 known-answer test (accelerator at 0x40000300).
kat_sha:
  li a1, 0x40000300
  li a5, 4
  sw a5, 0(a1)             # CTRL.init: load H0
  la a2, sha_block
  li a3, 0
sha_load:
  add a4, a2, a3
  lw a5, 0(a4)
  add a6, a1, a3
  sw a5, 0x40(a6)
  addi a3, a3, 4
  li a4, 64
  bne a3, a4, sha_load
  li a5, 1
  sw a5, 0(a1)             # CTRL.start
sha_wait:
  lw a5, 4(a1)
  andi a5, a5, 2
  beqz a5, sha_wait
  la a2, sha_digest
  li a3, 0
sha_check:
  add a4, a1, a3
  lw a5, 0x80(a4)
  add a4, a2, a3
  lw a6, 0(a4)
  bne a5, a6, kat_fail
  addi a3, a3, 4
  li a4, 32
  bne a3, a4, sha_check
  sw zero, 4(a1)
  ret

kat_fail:
  ebreak

aes_key:
  .word 0x00010203, 0x04050607, 0x08090a0b, 0x0c0d0e0f
aes_pt:
  .word 0x00112233, 0x44556677, 0x8899aabb, 0xccddeeff
aes_ct:
  .word 0x69c4e0d8, 0x6a7b0430, 0xd8cdb780, 0x70b4c55a
sha_block:                 # "abc", 0x80 pad, zeros, bit length 24
  .word 0x61626380, 0, 0, 0, 0, 0, 0, 0
  .word 0, 0, 0, 0, 0, 0, 0, 0x00000018
sha_digest:
  .word 0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223
  .word 0xb00361a3, 0x96177a9c, 0xb410ff61, 0xf20015ad
