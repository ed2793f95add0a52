# Symbolic workload firmware (symex-fpga); assembled with kat.s.
#
# a0 is symbolic. The firmware branches on its low `b` bits, one
# symbolic branch per bit, and each branch runs a known-answer check on a
# crypto accelerator: AES-128 when the bit is set, SHA-256 when it is
# clear. It collects the branch bits and exits with them as the exit code,
# except for one pattern, which stores past the end of RAM at
# `planted_bug` instead. An exploration therefore completes exactly 2^b
# paths whose exit codes are {0 .. 2^b-1} minus the bug pattern.
#
# The benchmark patches the three words at `cfg` into the assembled image:
# b, the bug pattern (seed-derived) and the length of a concrete warm-up
# loop that runs once before the first branch (seed-derived).
_start:
  la t0, cfg
  lw s2, 0(t0)             # b: number of symbolic branches
  lw s3, 4(t0)             # bug pattern
  lw s4, 8(t0)             # warm-up iterations
warmup:
  beqz s4, branches
  addi s4, s4, -1
  j warmup
branches:
  mv s1, a0
  li s5, 0                 # branch bits taken so far
  li s6, 0                 # branch index
branch_loop:
  beq s6, s2, branches_done
  srl t1, s1, s6
  andi t1, t1, 1
  beqz t1, branch_clear    # symbolic: forks
  li t2, 1
  sll t2, t2, s6
  or s5, s5, t2
  call kat_aes
  j branch_next
branch_clear:
  call kat_sha
branch_next:
  addi s6, s6, 1
  j branch_loop
branches_done:
  bne s5, s3, report
  li t0, 0x10040000        # first byte past the end of RAM
planted_bug:
  sw s5, 0(t0)
report:
  li t0, 0x50000004        # host exit
  sw s5, 0(t0)

cfg:
  .word 0, 0, 0
