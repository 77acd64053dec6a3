//go:build amd64 && !race

#include "textflag.h"

// The supernode tiles hold the running values of eight target rows (two YMM
// registers per target column) across a whole run of source columns and
// apply each source column as two loads of its contiguous below values, a
// broadcast of its multiplier, VMULPD and VSUBPD: per element exactly the
// MULSD/SUBSD of the Go loops, in the same ascending source order, never
// fused. The target rows are scattered (rel), so they are gathered once
// before the run and written back once after it. A 4-row tile takes the
// last whole four rows; the rows after it are left to the Go loop.
//
// Registers of both tiles:
//	SI  rel base        CX  rows to apply, len(rel)&^3
//	DI  lv base         R8  lb base        R9  run, len(lb)
//	R10 colA base       R11 colB base (tile42)
//	R12 uA base         R13 uB base (tile42)
//	BX  row t           DX  source d       R14 &lv[t]
//	AX  row index / offset / temporary
// Every offset and row is checked with unsigned compares before the first
// write, so a negative one fails too; a bad one returns -1.

// GATHER4(off, c, X, T, Y) loads rows rel[t+off/8 .. +3] of the column at
// c into Y (X its low half, T a temporary).
#define GATHER4(off, c, X, T, Y) \
	MOVQ        off(SI)(BX*8), AX; \
	VMOVSD      (c)(AX*8), X;      \
	MOVQ        off+8(SI)(BX*8), AX; \
	VMOVHPD     (c)(AX*8), X, X;   \
	MOVQ        off+16(SI)(BX*8), AX; \
	VMOVSD      (c)(AX*8), T;      \
	MOVQ        off+24(SI)(BX*8), AX; \
	VMOVHPD     (c)(AX*8), T, T;   \
	VINSERTF128 $1, T, Y, Y

// SCATTER4(off, c, X, T, Y) stores Y back to the rows GATHER4 loaded.
#define SCATTER4(off, c, X, T, Y) \
	VEXTRACTF128 $1, Y, T;          \
	MOVQ         off(SI)(BX*8), AX; \
	VMOVSD       X, (c)(AX*8);      \
	MOVQ         off+8(SI)(BX*8), AX; \
	VMOVHPD      X, (c)(AX*8);      \
	MOVQ         off+16(SI)(BX*8), AX; \
	VMOVSD       T, (c)(AX*8);      \
	MOVQ         off+24(SI)(BX*8), AX; \
	VMOVHPD      T, (c)(AX*8)

// func tile41AVX2(rel []int, lv []float64, lb []int, col, u []float64) (done int)
TEXT ·tile41AVX2(SB), NOSPLIT, $0-128
	MOVQ rel_base+0(FP), SI
	MOVQ rel_len+8(FP), CX
	ANDQ $-4, CX
	MOVQ lv_base+24(FP), DI
	MOVQ lv_len+32(FP), BX
	MOVQ lb_base+48(FP), R8
	MOVQ lb_len+56(FP), R9
	MOVQ col_base+72(FP), R10
	MOVQ col_len+80(FP), AX
	MOVQ u_base+96(FP), R12
	CMPQ u_len+104(FP), R9
	JLT  t41bad
	SUBQ CX, BX            // the largest valid offset, len(lv)-rows
	JLT  t41bad
	XORQ DX, DX

t41lb:
	CMPQ DX, R9
	JGE  t41rel0
	MOVQ (R8)(DX*8), R14
	CMPQ R14, BX
	JA   t41bad
	INCQ DX
	JMP  t41lb

t41rel0:
	XORQ DX, DX

t41rel:
	CMPQ DX, CX
	JGE  t41go
	MOVQ (SI)(DX*8), R14
	CMPQ R14, AX
	JAE  t41bad
	INCQ DX
	JMP  t41rel

t41go:
	XORQ BX, BX

t41row8:
	LEAQ 8(BX), AX
	CMPQ AX, CX
	JGT  t41row4
	GATHER4(0, R10, X0, X4, Y0)
	GATHER4(32, R10, X1, X4, Y1)
	LEAQ (DI)(BX*8), R14
	XORQ DX, DX

t41d8:
	CMPQ         DX, R9
	JGE          t41st8
	MOVQ         (R8)(DX*8), AX
	VMOVUPD      (R14)(AX*8), Y4
	VMOVUPD      32(R14)(AX*8), Y5
	VBROADCASTSD (R12)(DX*8), Y6
	VMULPD       Y6, Y4, Y4
	VMULPD       Y6, Y5, Y5
	VSUBPD       Y4, Y0, Y0
	VSUBPD       Y5, Y1, Y1
	INCQ         DX
	JMP          t41d8

t41st8:
	SCATTER4(0, R10, X0, X4, Y0)
	SCATTER4(32, R10, X1, X4, Y1)
	ADDQ $8, BX
	JMP  t41row8

t41row4:
	CMPQ BX, CX
	JGE  t41done
	GATHER4(0, R10, X0, X4, Y0)
	LEAQ (DI)(BX*8), R14
	XORQ DX, DX

t41d4:
	CMPQ         DX, R9
	JGE          t41st4
	MOVQ         (R8)(DX*8), AX
	VMOVUPD      (R14)(AX*8), Y4
	VBROADCASTSD (R12)(DX*8), Y6
	VMULPD       Y6, Y4, Y4
	VSUBPD       Y4, Y0, Y0
	INCQ         DX
	JMP          t41d4

t41st4:
	SCATTER4(0, R10, X0, X4, Y0)

t41done:
	VZEROUPPER
	MOVQ CX, done+120(FP)
	RET

t41bad:
	MOVQ $-1, done+120(FP)
	RET

// func tile42AVX2(rel []int, lv []float64, lb []int, colA, colB, uA, uB []float64) (done int)
TEXT ·tile42AVX2(SB), NOSPLIT, $0-176
	MOVQ    rel_base+0(FP), SI
	MOVQ    rel_len+8(FP), CX
	ANDQ    $-4, CX
	MOVQ    lv_base+24(FP), DI
	MOVQ    lv_len+32(FP), BX
	MOVQ    lb_base+48(FP), R8
	MOVQ    lb_len+56(FP), R9
	MOVQ    colA_base+72(FP), R10
	MOVQ    colA_len+80(FP), AX
	MOVQ    colB_base+96(FP), R11
	MOVQ    colB_len+104(FP), DX
	CMPQ    DX, AX
	CMOVQLT DX, AX         // a row must lie in both columns
	MOVQ    uA_base+120(FP), R12
	MOVQ    uB_base+144(FP), R13
	CMPQ    uA_len+128(FP), R9
	JLT     t42bad
	CMPQ    uB_len+152(FP), R9
	JLT     t42bad
	SUBQ    CX, BX
	JLT     t42bad
	XORQ    DX, DX

t42lb:
	CMPQ DX, R9
	JGE  t42rel0
	MOVQ (R8)(DX*8), R14
	CMPQ R14, BX
	JA   t42bad
	INCQ DX
	JMP  t42lb

t42rel0:
	XORQ DX, DX

t42rel:
	CMPQ DX, CX
	JGE  t42go
	MOVQ (SI)(DX*8), R14
	CMPQ R14, AX
	JAE  t42bad
	INCQ DX
	JMP  t42rel

t42go:
	XORQ BX, BX

t42row8:
	LEAQ 8(BX), AX
	CMPQ AX, CX
	JGT  t42row4
	GATHER4(0, R10, X0, X4, Y0)
	GATHER4(32, R10, X1, X4, Y1)
	GATHER4(0, R11, X2, X4, Y2)
	GATHER4(32, R11, X3, X4, Y3)
	LEAQ (DI)(BX*8), R14
	XORQ DX, DX

t42d8:
	CMPQ         DX, R9
	JGE          t42st8
	MOVQ         (R8)(DX*8), AX
	VMOVUPD      (R14)(AX*8), Y4
	VMOVUPD      32(R14)(AX*8), Y5
	VBROADCASTSD (R12)(DX*8), Y6
	VBROADCASTSD (R13)(DX*8), Y7
	VMULPD       Y6, Y4, Y8
	VMULPD       Y6, Y5, Y9
	VMULPD       Y7, Y4, Y10
	VMULPD       Y7, Y5, Y11
	VSUBPD       Y8, Y0, Y0
	VSUBPD       Y9, Y1, Y1
	VSUBPD       Y10, Y2, Y2
	VSUBPD       Y11, Y3, Y3
	INCQ         DX
	JMP          t42d8

t42st8:
	SCATTER4(0, R10, X0, X4, Y0)
	SCATTER4(32, R10, X1, X4, Y1)
	SCATTER4(0, R11, X2, X4, Y2)
	SCATTER4(32, R11, X3, X4, Y3)
	ADDQ $8, BX
	JMP  t42row8

t42row4:
	CMPQ BX, CX
	JGE  t42done
	GATHER4(0, R10, X0, X4, Y0)
	GATHER4(0, R11, X2, X4, Y2)
	LEAQ (DI)(BX*8), R14
	XORQ DX, DX

t42d4:
	CMPQ         DX, R9
	JGE          t42st4
	MOVQ         (R8)(DX*8), AX
	VMOVUPD      (R14)(AX*8), Y4
	VBROADCASTSD (R12)(DX*8), Y6
	VBROADCASTSD (R13)(DX*8), Y7
	VMULPD       Y6, Y4, Y8
	VMULPD       Y7, Y4, Y10
	VSUBPD       Y8, Y0, Y0
	VSUBPD       Y10, Y2, Y2
	INCQ         DX
	JMP          t42d4

t42st4:
	SCATTER4(0, R10, X0, X4, Y0)
	SCATTER4(0, R11, X2, X4, Y2)

t42done:
	VZEROUPPER
	MOVQ CX, done+168(FP)
	RET

t42bad:
	MOVQ $-1, done+168(FP)
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
