//go:build amd64 && !race

#include "textflag.h"

// The tile kernels work on the row-major block of the blocked outside
// update: block row r is 16 float64 lanes at blk+r*128, four YMM registers
// in the AVX2 pair below (the AVX-512 pair, after it, uses two ZMM).
// A source contributes row -= l·mult, mult being its block row of
// multipliers: VBROADCASTSD of l, VMULPD, VSUBPD — per lane exactly the
// MULSD/SUBSD of the Go loops, in the same ascending source order, never
// fused, and with the multiplier as the first factor like the compiled Go
// loops (of two NaN factors, the first one's payload wins). Where a
// multiplier lane is zero the Go loops skip the lane, so the kernels
// select the old lane back with VBLENDVPD on the mask mult != 0 (VCMPPD
// predicate 4, NEQ_UQ: true for NaN as in Go); the lane keeps its bits,
// −0 and NaN payloads included. Every index is checked with unsigned
// compares, so a negative one fails too, before the write it would
// address; a bad one returns false.

// MASKED(off, p, M, K, A) applies the source lanes at off(p) — multiplier
// M (loaded here), l broadcast in Y8, mask K (made here) — to the
// accumulator A.
#define MASKED(off, p, M, K, A) \
	VMOVUPD   off(p), M;       \
	VCMPPD    $4, Y15, M, K;   \
	VMULPD    Y8, M, M;        \
	VSUBPD    M, A, M;         \
	VBLENDVPD K, M, A, A

// ROWGROUP(off, M, K) applies lane group off of the source — multiplier M,
// mask K, l broadcast in Y8 — to the target row at AX.
#define ROWGROUP(off, M, K) \
	VMOVUPD   off(AX), Y9;   \
	VMULPD    Y8, M, Y10;    \
	VSUBPD    Y10, Y9, Y10;  \
	VBLENDVPD K, Y10, Y9, Y9; \
	VMOVUPD   Y9, off(AX)

// func rowUpdateAVX2(blk []float64, q int, rows, slot []int, vals []float64) (ok bool)
//
// The target rows are checked one by one as the loop reaches them: a
// separate pass over rows and slot first would cost as much as the update.
//
//	DI blk base      R8 whole rows in blk     AX q, then row address
//	SI rows base     CX len(rows)             BX t
//	R9 slot base     R10 len(slot)            R11 vals base
//	Y0-Y3 mult row   Y4-Y7 its masks          Y8 vals[t]   Y15 zero
//	R12 the masks' sign bits, four per lane group
TEXT ·rowUpdateAVX2(SB), NOSPLIT, $0-105
	MOVQ blk_base+0(FP), DI
	MOVQ blk_len+8(FP), R8
	SHRQ $4, R8
	MOVQ q+24(FP), AX
	CMPQ AX, R8
	JAE  rubad
	MOVQ rows_base+32(FP), SI
	MOVQ rows_len+40(FP), CX
	MOVQ slot_base+56(FP), R9
	MOVQ slot_len+64(FP), R10
	MOVQ vals_base+80(FP), R11
	CMPQ vals_len+88(FP), CX
	JLT  rubad

	SHLQ      $7, AX
	ADDQ      DI, AX
	VMOVUPD   (AX), Y0
	VMOVUPD   32(AX), Y1
	VMOVUPD   64(AX), Y2
	VMOVUPD   96(AX), Y3
	VXORPD    Y15, Y15, Y15
	VCMPPD    $4, Y15, Y0, Y4
	VCMPPD    $4, Y15, Y1, Y5
	VCMPPD    $4, Y15, Y2, Y6
	VCMPPD    $4, Y15, Y3, Y7
	VMOVMSKPD Y4, R12       // live lanes, four per group: a group with none is skipped
	VMOVMSKPD Y5, R13
	VMOVMSKPD Y6, R14
	VMOVMSKPD Y7, DX
	SHLQ      $4, R13
	SHLQ      $8, R14
	SHLQ      $12, DX
	ORQ       R13, R12
	ORQ       R14, R12
	ORQ       DX, R12
	XORQ      BX, BX

rurow:
	CMPQ         BX, CX
	JGE          rudone
	MOVQ         (SI)(BX*8), DX
	CMPQ         DX, R10
	JAE          rubad
	MOVQ         (R9)(DX*8), AX
	CMPQ         AX, R8
	JAE          rubad
	SHLQ         $7, AX
	ADDQ         DI, AX
	VBROADCASTSD (R11)(BX*8), Y8
	INCQ         BX
	TESTQ        $0xf, R12
	JEQ          rug1
	ROWGROUP(0, Y0, Y4)

rug1:
	TESTQ $0xf0, R12
	JEQ   rug2
	ROWGROUP(32, Y1, Y5)

rug2:
	TESTQ $0xf00, R12
	JEQ   rug3
	ROWGROUP(64, Y2, Y6)

rug3:
	TESTQ $0xf000, R12
	JEQ   rurow
	ROWGROUP(96, Y3, Y7)
	JMP   rurow

rudone:
	VZEROUPPER
	MOVB $1, ok+104(FP)
	RET

rubad:
	VZEROUPPER
	MOVB $0, ok+104(FP)
	RET

// MASKED2(off, A, B) is MASKED on two target rows, l broadcast in Y8 and
// Y9, accumulators A and B.
#define MASKED2(off, A, B) \
	VMOVUPD   off(R8), Y10;      \
	VCMPPD    $4, Y15, Y10, Y11; \
	VMULPD    Y8, Y10, Y12;      \
	VMULPD    Y9, Y10, Y13;      \
	VSUBPD    Y12, A, Y12;       \
	VSUBPD    Y13, B, Y13;       \
	VBLENDVPD Y11, Y12, A, A;    \
	VBLENDVPD Y11, Y13, B, B

// FULL2(off, A, B) is MASKED2 with every lane live: no mask, no select.
#define FULL2(off, A, B) \
	VMOVUPD off(R8), Y10; \
	VMULPD  Y8, Y10, Y12; \
	VMULPD  Y9, Y10, Y13; \
	VSUBPD  Y12, A, A;    \
	VSUBPD  Y13, B, B

// FULL1(off, A) is FULL2 on one target row.
#define FULL1(off, A) \
	VMOVUPD off(R8), Y10; \
	VMULPD  Y8, Y10, Y12; \
	VSUBPD  Y12, A, A

// LOADROW(r, A0, A1, A2, A3) loads block row r, clobbering AX.
#define LOADROW(r, A0, A1, A2, A3) \
	MOVQ    r, AX;            \
	SHLQ    $7, AX;           \
	VMOVUPD (DI)(AX*1), A0;   \
	VMOVUPD 32(DI)(AX*1), A1; \
	VMOVUPD 64(DI)(AX*1), A2; \
	VMOVUPD 96(DI)(AX*1), A3

// STOREROW(r, A0, A1, A2, A3) stores block row r, clobbering AX.
#define STOREROW(r, A0, A1, A2, A3) \
	MOVQ    r, AX;            \
	SHLQ    $7, AX;           \
	VMOVUPD A0, (DI)(AX*1);   \
	VMOVUPD A1, 32(DI)(AX*1); \
	VMOVUPD A2, 64(DI)(AX*1); \
	VMOVUPD A3, 96(DI)(AX*1)

// func runUpdateAVX2(blk []float64, rel []int, lv []float64, lb []int, q, full int) (ok bool)
//
// Two target rows at a time (then the odd last one) stay in registers
// across the whole run: the source columns d < full apply under the
// masks, the rest unmasked.
//
//	DI blk base      SI rel base       CX len(rel)       BX t
//	R11 lv base      R12 lb base       R9 run, len(lb)   R13 full
//	R10 &mult row q  R8 &mult row d    DX d
//	R14 &lv[t]       AX offset / row / temporary         Y15 zero
TEXT ·runUpdateAVX2(SB), NOSPLIT, $0-113
	MOVQ blk_base+0(FP), DI
	MOVQ blk_len+8(FP), R8
	SHRQ $4, R8
	MOVQ rel_base+24(FP), SI
	MOVQ rel_len+32(FP), CX
	MOVQ lv_base+48(FP), R11
	MOVQ lv_len+56(FP), BX
	MOVQ lb_base+72(FP), R12
	MOVQ lb_len+80(FP), R9
	MOVQ q+96(FP), R10
	CMPQ R10, R8
	JA   rnbad
	MOVQ R8, DX
	SUBQ R10, DX           // rows from q to the end
	CMPQ R9, DX
	JA   rnbad
	SUBQ CX, BX            // the largest valid offset, len(lv)-len(rel)
	JLT  rnbad
	XORQ DX, DX

rnlb:
	CMPQ DX, R9
	JGE  rnrel0
	MOVQ (R12)(DX*8), AX
	CMPQ AX, BX
	JA   rnbad
	INCQ DX
	JMP  rnlb

rnrel0:
	XORQ DX, DX

rnrel:
	CMPQ DX, CX
	JGE  rngo
	MOVQ (SI)(DX*8), AX
	CMPQ AX, R8
	JAE  rnbad
	INCQ DX
	JMP  rnrel

rngo:
	SHLQ    $7, R10
	ADDQ    DI, R10
	MOVQ    full+104(FP), R13
	CMPQ    R13, R9
	CMOVQHI R9, R13        // at most run; a negative one counts as run too
	VXORPD  Y15, Y15, Y15
	XORQ    BX, BX

rn2:
	LEAQ 2(BX), AX
	CMPQ AX, CX
	JGT  rn1
	LOADROW((SI)(BX*8), Y0, Y1, Y2, Y3)
	LOADROW(8(SI)(BX*8), Y4, Y5, Y6, Y7)
	LEAQ (R11)(BX*8), R14
	MOVQ R10, R8
	XORQ DX, DX

rn2m:
	CMPQ         DX, R13
	JGE          rn2f
	MOVQ         (R12)(DX*8), AX
	VBROADCASTSD (R14)(AX*8), Y8
	VBROADCASTSD 8(R14)(AX*8), Y9
	MASKED2(0, Y0, Y4)
	MASKED2(32, Y1, Y5)
	MASKED2(64, Y2, Y6)
	MASKED2(96, Y3, Y7)
	ADDQ         $128, R8
	INCQ         DX
	JMP          rn2m

rn2f:
	CMPQ         DX, R9
	JGE          rn2st
	MOVQ         (R12)(DX*8), AX
	VBROADCASTSD (R14)(AX*8), Y8
	VBROADCASTSD 8(R14)(AX*8), Y9
	FULL2(0, Y0, Y4)
	FULL2(32, Y1, Y5)
	FULL2(64, Y2, Y6)
	FULL2(96, Y3, Y7)
	ADDQ         $128, R8
	INCQ         DX
	JMP          rn2f

rn2st:
	STOREROW((SI)(BX*8), Y0, Y1, Y2, Y3)
	STOREROW(8(SI)(BX*8), Y4, Y5, Y6, Y7)
	ADDQ $2, BX
	JMP  rn2

rn1:
	CMPQ BX, CX
	JGE  rndone
	LOADROW((SI)(BX*8), Y0, Y1, Y2, Y3)
	LEAQ (R11)(BX*8), R14
	MOVQ R10, R8
	XORQ DX, DX

rn1m:
	CMPQ         DX, R13
	JGE          rn1f
	MOVQ         (R12)(DX*8), AX
	VBROADCASTSD (R14)(AX*8), Y8
	MASKED(0, R8, Y9, Y10, Y0)
	MASKED(32, R8, Y11, Y12, Y1)
	MASKED(64, R8, Y13, Y14, Y2)
	MASKED(96, R8, Y9, Y10, Y3)
	ADDQ         $128, R8
	INCQ         DX
	JMP          rn1m

rn1f:
	CMPQ         DX, R9
	JGE          rn1st
	MOVQ         (R12)(DX*8), AX
	VBROADCASTSD (R14)(AX*8), Y8
	FULL1(0, Y0)
	FULL1(32, Y1)
	FULL1(64, Y2)
	FULL1(96, Y3)
	ADDQ         $128, R8
	INCQ         DX
	JMP          rn1f

rn1st:
	STOREROW((SI)(BX*8), Y0, Y1, Y2, Y3)

rndone:
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

rnbad:
	MOVB $0, ok+112(FP)
	RET

// The AVX-512 pair of tile kernels: a block row is two ZMM registers, the
// lanes 0–7 and 8–15 of a tile row. The arithmetic per lane is the AVX2
// kernels' (VBROADCASTSD of l, VMULPD with the multiplier as the first
// factor, VSUBPD, never fused); the mask mult != 0 (VCMPPD NEQ_UQ) goes
// into K1 for the low half and K2 for the high half and merge-masks the
// VSUBPD, so a masked lane keeps its exact bits as under VBLENDVPD. Only
// AVX512F instructions appear (hasAVX512). Registers Z0–Z15 only, so the
// VZEROUPPER on the way out leaves no upper state dirty.

// ZROWHALF(off, M, K) applies half off of the source — multiplier M, mask
// K, l broadcast in Z8 — to the target row at AX.
#define ZROWHALF(off, M, K) \
	VMOVUPD off(AX), Z9;    \
	VMULPD  Z8, M, Z10;     \
	VSUBPD  Z10, Z9, K, Z9; \
	VMOVUPD Z9, off(AX)

// func rowUpdateAVX512(blk []float64, q int, rows, slot []int, vals []float64) (ok bool)
//
// rowUpdateAVX2's loop and checks, a target row as two halves.
//
//	DI blk base      R8 whole rows in blk     AX q, then row address
//	SI rows base     CX len(rows)             BX t
//	R9 slot base     R10 len(slot)            R11 vals base
//	Z0-Z1 mult row   K1-K2 its masks          Z8 vals[t]   Z15 zero
//	R12 the masks, eight bits per half
TEXT ·rowUpdateAVX512(SB), NOSPLIT, $0-105
	MOVQ blk_base+0(FP), DI
	MOVQ blk_len+8(FP), R8
	SHRQ $4, R8
	MOVQ q+24(FP), AX
	CMPQ AX, R8
	JAE  zrubad
	MOVQ rows_base+32(FP), SI
	MOVQ rows_len+40(FP), CX
	MOVQ slot_base+56(FP), R9
	MOVQ slot_len+64(FP), R10
	MOVQ vals_base+80(FP), R11
	CMPQ vals_len+88(FP), CX
	JLT  zrubad

	SHLQ    $7, AX
	ADDQ    DI, AX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	VPXORQ  Z15, Z15, Z15
	VCMPPD  $4, Z15, Z0, K1
	VCMPPD  $4, Z15, Z1, K2
	KMOVW   K1, R12         // live lanes, eight per half: a half with none is skipped
	KMOVW   K2, R13
	SHLQ    $8, R13
	ORQ     R13, R12
	XORQ    BX, BX

zrurow:
	CMPQ         BX, CX
	JGE          zrudone
	MOVQ         (SI)(BX*8), DX
	CMPQ         DX, R10
	JAE          zrubad
	MOVQ         (R9)(DX*8), AX
	CMPQ         AX, R8
	JAE          zrubad
	SHLQ         $7, AX
	ADDQ         DI, AX
	VBROADCASTSD (R11)(BX*8), Z8
	INCQ         BX
	TESTQ        $0xff, R12
	JEQ          zruhi
	ZROWHALF(0, Z0, K1)

zruhi:
	TESTQ $0xff00, R12
	JEQ   zrurow
	ZROWHALF(64, Z1, K2)
	JMP   zrurow

zrudone:
	VZEROUPPER
	MOVB $1, ok+104(FP)
	RET

zrubad:
	VZEROUPPER
	MOVB $0, ok+104(FP)
	RET

// ZMULTS(M0, M1) loads the multiplier row at R8 into M0 and M1 and the
// offset lb[d] into AX, and steps R8 and DX to the next source column.
#define ZMULTS(M0, M1) \
	MOVQ    (R12)(DX*8), AX; \
	VMOVUPD (R8), M0;        \
	VMOVUPD 64(R8), M1;      \
	ADDQ    $128, R8;        \
	INCQ    DX

// ZMSUB(L, M, K, A) is A -= L·M in the lanes of K; ZFSUB(L, M, A) in all.
#define ZMSUB(L, M, K, A) \
	VMULPD L, M, Z14; \
	VSUBPD Z14, A, K, A

#define ZFSUB(L, M, A) \
	VMULPD L, M, Z14; \
	VSUBPD Z14, A, A

// ZLOADROW(r, A0, A1) loads block row r, clobbering AX; ZSTOREROW stores it.
#define ZLOADROW(r, A0, A1) \
	MOVQ    r, AX;            \
	SHLQ    $7, AX;           \
	VMOVUPD (DI)(AX*1), A0;   \
	VMOVUPD 64(DI)(AX*1), A1

#define ZSTOREROW(r, A0, A1) \
	MOVQ    r, AX;            \
	SHLQ    $7, AX;           \
	VMOVUPD A0, (DI)(AX*1);   \
	VMOVUPD A1, 64(DI)(AX*1)

// func runUpdateAVX512(blk []float64, rel []int, lv []float64, lb []int, q, full int) (ok bool)
//
// runUpdateAVX2's checks, then four target rows at a time (then two, then
// one) stay in registers across the whole run: the source columns d < full
// apply under the masks, a half with no live lane skipped, the rest
// unmasked.
//
//	DI blk base      SI rel base       CX len(rel)       BX t
//	R11 lv base      R12 lb base       R9 run, len(lb)   R13 full
//	R10 &mult row q  R8 &mult row d    DX d
//	R14 &lv[t]       AX offset / row / temporary
//	Z0-Z7 rows t..t+3, two halves each   Z8-Z11 their l   Z12-Z13 mult
//	K1-K2 its masks  Z14 product         Z15 zero
TEXT ·runUpdateAVX512(SB), NOSPLIT, $0-113
	MOVQ blk_base+0(FP), DI
	MOVQ blk_len+8(FP), R8
	SHRQ $4, R8
	MOVQ rel_base+24(FP), SI
	MOVQ rel_len+32(FP), CX
	MOVQ lv_base+48(FP), R11
	MOVQ lv_len+56(FP), BX
	MOVQ lb_base+72(FP), R12
	MOVQ lb_len+80(FP), R9
	MOVQ q+96(FP), R10
	CMPQ R10, R8
	JA   zrnbad
	MOVQ R8, DX
	SUBQ R10, DX           // rows from q to the end
	CMPQ R9, DX
	JA   zrnbad
	SUBQ CX, BX            // the largest valid offset, len(lv)-len(rel)
	JLT  zrnbad
	XORQ DX, DX

zrnlb:
	CMPQ DX, R9
	JGE  zrnrel0
	MOVQ (R12)(DX*8), AX
	CMPQ AX, BX
	JA   zrnbad
	INCQ DX
	JMP  zrnlb

zrnrel0:
	XORQ DX, DX

zrnrel:
	CMPQ DX, CX
	JGE  zrngo
	MOVQ (SI)(DX*8), AX
	CMPQ AX, R8
	JAE  zrnbad
	INCQ DX
	JMP  zrnrel

zrngo:
	SHLQ    $7, R10
	ADDQ    DI, R10
	MOVQ    full+104(FP), R13
	CMPQ    R13, R9
	CMOVQHI R9, R13        // at most run; a negative one counts as run too
	VPXORQ  Z15, Z15, Z15
	XORQ    BX, BX

zrn4:
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JGT  zrn2
	ZLOADROW((SI)(BX*8), Z0, Z1)
	ZLOADROW(8(SI)(BX*8), Z2, Z3)
	ZLOADROW(16(SI)(BX*8), Z4, Z5)
	ZLOADROW(24(SI)(BX*8), Z6, Z7)
	LEAQ (R11)(BX*8), R14
	MOVQ R10, R8
	XORQ DX, DX

zrn4m:
	CMPQ         DX, R13
	JGE          zrn4f
	ZMULTS(Z12, Z13)
	VCMPPD       $4, Z15, Z12, K1
	VCMPPD       $4, Z15, Z13, K2
	VBROADCASTSD (R14)(AX*8), Z8
	VBROADCASTSD 8(R14)(AX*8), Z9
	VBROADCASTSD 16(R14)(AX*8), Z10
	VBROADCASTSD 24(R14)(AX*8), Z11
	KORTESTW     K1, K1
	JEQ          zrn4mh
	ZMSUB(Z8, Z12, K1, Z0)
	ZMSUB(Z9, Z12, K1, Z2)
	ZMSUB(Z10, Z12, K1, Z4)
	ZMSUB(Z11, Z12, K1, Z6)

zrn4mh:
	KORTESTW K2, K2
	JEQ      zrn4m
	ZMSUB(Z8, Z13, K2, Z1)
	ZMSUB(Z9, Z13, K2, Z3)
	ZMSUB(Z10, Z13, K2, Z5)
	ZMSUB(Z11, Z13, K2, Z7)
	JMP      zrn4m

zrn4f:
	CMPQ         DX, R9
	JGE          zrn4st
	ZMULTS(Z12, Z13)
	VBROADCASTSD (R14)(AX*8), Z8
	VBROADCASTSD 8(R14)(AX*8), Z9
	VBROADCASTSD 16(R14)(AX*8), Z10
	VBROADCASTSD 24(R14)(AX*8), Z11
	ZFSUB(Z8, Z12, Z0)
	ZFSUB(Z8, Z13, Z1)
	ZFSUB(Z9, Z12, Z2)
	ZFSUB(Z9, Z13, Z3)
	ZFSUB(Z10, Z12, Z4)
	ZFSUB(Z10, Z13, Z5)
	ZFSUB(Z11, Z12, Z6)
	ZFSUB(Z11, Z13, Z7)
	JMP          zrn4f

zrn4st:
	ZSTOREROW((SI)(BX*8), Z0, Z1)
	ZSTOREROW(8(SI)(BX*8), Z2, Z3)
	ZSTOREROW(16(SI)(BX*8), Z4, Z5)
	ZSTOREROW(24(SI)(BX*8), Z6, Z7)
	ADDQ $4, BX
	JMP  zrn4

zrn2:
	LEAQ 2(BX), AX
	CMPQ AX, CX
	JGT  zrn1
	ZLOADROW((SI)(BX*8), Z0, Z1)
	ZLOADROW(8(SI)(BX*8), Z2, Z3)
	LEAQ (R11)(BX*8), R14
	MOVQ R10, R8
	XORQ DX, DX

zrn2m:
	CMPQ         DX, R13
	JGE          zrn2f
	ZMULTS(Z12, Z13)
	VCMPPD       $4, Z15, Z12, K1
	VCMPPD       $4, Z15, Z13, K2
	VBROADCASTSD (R14)(AX*8), Z8
	VBROADCASTSD 8(R14)(AX*8), Z9
	KORTESTW     K1, K1
	JEQ          zrn2mh
	ZMSUB(Z8, Z12, K1, Z0)
	ZMSUB(Z9, Z12, K1, Z2)

zrn2mh:
	KORTESTW K2, K2
	JEQ      zrn2m
	ZMSUB(Z8, Z13, K2, Z1)
	ZMSUB(Z9, Z13, K2, Z3)
	JMP      zrn2m

zrn2f:
	CMPQ         DX, R9
	JGE          zrn2st
	ZMULTS(Z12, Z13)
	VBROADCASTSD (R14)(AX*8), Z8
	VBROADCASTSD 8(R14)(AX*8), Z9
	ZFSUB(Z8, Z12, Z0)
	ZFSUB(Z8, Z13, Z1)
	ZFSUB(Z9, Z12, Z2)
	ZFSUB(Z9, Z13, Z3)
	JMP          zrn2f

zrn2st:
	ZSTOREROW((SI)(BX*8), Z0, Z1)
	ZSTOREROW(8(SI)(BX*8), Z2, Z3)
	ADDQ $2, BX

zrn1:
	CMPQ BX, CX
	JGE  zrndone
	ZLOADROW((SI)(BX*8), Z0, Z1)
	LEAQ (R11)(BX*8), R14
	MOVQ R10, R8
	XORQ DX, DX

zrn1m:
	CMPQ         DX, R13
	JGE          zrn1f
	ZMULTS(Z12, Z13)
	VCMPPD       $4, Z15, Z12, K1
	VCMPPD       $4, Z15, Z13, K2
	VBROADCASTSD (R14)(AX*8), Z8
	KORTESTW     K1, K1
	JEQ          zrn1mh
	ZMSUB(Z8, Z12, K1, Z0)

zrn1mh:
	KORTESTW K2, K2
	JEQ      zrn1m
	ZMSUB(Z8, Z13, K2, Z1)
	JMP      zrn1m

zrn1f:
	CMPQ         DX, R9
	JGE          zrn1st
	ZMULTS(Z12, Z13)
	VBROADCASTSD (R14)(AX*8), Z8
	ZFSUB(Z8, Z12, Z0)
	ZFSUB(Z8, Z13, Z1)
	JMP          zrn1f

zrn1st:
	ZSTOREROW((SI)(BX*8), Z0, Z1)

zrndone:
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

zrnbad:
	MOVB $0, ok+112(FP)
	RET

// func axpyAVX2(dst, src []float64, s float64) (ok bool)
//
//	DI dst base   SI src base   CX n = len(dst)   AX i   Y0 s
TEXT ·axpyAVX2(SB), NOSPLIT, $0-57
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	CMPQ         src_len+32(FP), CX
	JLT          axbad
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX

ax8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     ax4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VSUBPD  Y1, Y3, Y3
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	MOVQ    DX, AX
	JMP     ax8

ax4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     ax1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI)(AX*8), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	MOVQ    DX, AX

ax1:
	CMPQ   AX, CX
	JGE    axdone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(AX*8), X3
	VSUBSD X1, X3, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ   AX
	JMP    ax1

axdone:
	VZEROUPPER
	MOVB $1, ok+56(FP)
	RET

axbad:
	MOVB $0, ok+56(FP)
	RET

// func divByAVX2(x []float64, s float64)
//
//	DI x base   CX n   AX i   Y0 s
TEXT ·divByAVX2(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y0
	XORQ         AX, AX

dv8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     dv4
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VDIVPD  Y0, Y1, Y1
	VDIVPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	MOVQ    DX, AX
	JMP     dv8

dv4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     dv1
	VMOVUPD (DI)(AX*8), Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ    DX, AX

dv1:
	CMPQ   AX, CX
	JGE    dvdone
	VMOVSD (DI)(AX*8), X1
	VDIVSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    dv1

dvdone:
	VZEROUPPER
	RET
