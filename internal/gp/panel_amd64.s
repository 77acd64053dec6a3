//go:build amd64 && !race

#include "textflag.h"

// The panel sweeps hold one PanelRow in two YMM registers (Y0 lanes 0–3,
// Y1 lanes 4–7) and apply each factor entry as a broadcast, two VMULPD and
// two VSUBPD: per lane exactly the MULSD/SUBSD (and, for U, DIVSD) of the Go
// loops, in the same order, never fused.
//
// Registers of both sweeps:
//	DI  y base          SI  len(y) (= n, the row bound)
//	R8  colptr base     R9  rowidx base     R10 values base
//	R11 lim, the largest permitted end of an entry range
//	BX  column j        CX  the other end of the column range
//	DX  entry cursor p  R12 entry end p1    R13 byte offset of y[j]
//	AX  row / temporary Y9  zero
// A column whose entry range, pivot slot or row is out of bounds stops the
// sweep before it writes anything for that column, and its index is
// returned; -1 means the range was swept.

// func lsolvePanelAVX2(y []PanelRow, colptr, rowidx []int, values []float64, lim, j0, j1 int) (bad int)
TEXT ·lsolvePanelAVX2(SB), NOSPLIT, $0-128
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), SI
	MOVQ   colptr_base+24(FP), R8
	MOVQ   rowidx_base+48(FP), R9
	MOVQ   values_base+72(FP), R10
	MOVQ   lim+96(FP), R11
	MOVQ   j0+104(FP), BX
	MOVQ   j1+112(FP), CX
	VXORPD Y9, Y9, Y9

lcol:
	CMPQ  BX, CX
	JGE   ldone
	MOVQ  (R8)(BX*8), DX   // p0 = colptr[j]+1: skip the unit diagonal
	INCQ  DX
	MOVQ  8(R8)(BX*8), R12 // p1 = colptr[j+1]
	TESTQ DX, DX
	JLT   lbad
	CMPQ  DX, R12
	JGT   lbad
	CMPQ  R12, R11
	JGT   lbad
	CMPQ  DX, R12
	JEQ   lnext

	MOVQ      BX, R13
	SHLQ      $6, R13
	VMOVUPD   (DI)(R13*1), Y0
	VMOVUPD   32(DI)(R13*1), Y1
	VCMPPD    $0, Y9, Y0, Y2 // EQ_OQ: −0 is zero, NaN is not
	VCMPPD    $0, Y9, Y1, Y3
	VANDPD    Y3, Y2, Y2
	VMOVMSKPD Y2, AX
	CMPQ      AX, $15
	JEQ       lnext

lrow:
	MOVQ         (R9)(DX*8), AX
	CMPQ         AX, SI
	JAE          lbad // unsigned: also catches a negative row
	SHLQ         $6, AX
	VBROADCASTSD (R10)(DX*8), Y4
	VMULPD       Y0, Y4, Y5
	VMULPD       Y1, Y4, Y6
	VMOVUPD      (DI)(AX*1), Y7
	VSUBPD       Y5, Y7, Y7
	VMOVUPD      Y7, (DI)(AX*1)
	VMOVUPD      32(DI)(AX*1), Y8
	VSUBPD       Y6, Y8, Y8
	VMOVUPD      Y8, 32(DI)(AX*1)
	INCQ         DX
	CMPQ         DX, R12
	JLT          lrow

lnext:
	INCQ BX
	JMP  lcol

ldone:
	VZEROUPPER
	MOVQ $-1, bad+120(FP)
	RET

lbad:
	VZEROUPPER
	MOVQ BX, bad+120(FP)
	RET

// func usolvePanelAVX2(y []PanelRow, colptr, rowidx []int, values []float64, lim, j0, j1 int) (bad int)
//
// Sweeps columns j1-1 down to j0. lim is min(len(rowidx), len(values)-1),
// so p1 <= lim also bounds the pivot slot.
TEXT ·usolvePanelAVX2(SB), NOSPLIT, $0-128
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), SI
	MOVQ   colptr_base+24(FP), R8
	MOVQ   rowidx_base+48(FP), R9
	MOVQ   values_base+72(FP), R10
	MOVQ   lim+96(FP), R11
	MOVQ   j0+104(FP), CX
	MOVQ   j1+112(FP), BX
	VXORPD Y9, Y9, Y9

ucol:
	DECQ  BX
	CMPQ  BX, CX
	JLT   udone
	MOVQ  (R8)(BX*8), DX   // p0 = colptr[j]
	MOVQ  8(R8)(BX*8), R12 // p1 = colptr[j+1]-1: the pivot slot
	DECQ  R12
	TESTQ DX, DX
	JLT   ubad
	CMPQ  DX, R12
	JGT   ubad
	CMPQ  R12, R11
	JGT   ubad

	VBROADCASTSD (R10)(R12*8), Y4
	MOVQ         BX, R13
	SHLQ         $6, R13
	VMOVUPD      (DI)(R13*1), Y0
	VMOVUPD      32(DI)(R13*1), Y1
	VDIVPD       Y4, Y0, Y0
	VDIVPD       Y4, Y1, Y1
	VMOVUPD      Y0, (DI)(R13*1)
	VMOVUPD      Y1, 32(DI)(R13*1)
	CMPQ         DX, R12
	JEQ          ucol

	VCMPPD    $0, Y9, Y0, Y2
	VCMPPD    $0, Y9, Y1, Y3
	VANDPD    Y3, Y2, Y2
	VMOVMSKPD Y2, AX
	CMPQ      AX, $15
	JEQ       ucol

urow:
	MOVQ         (R9)(DX*8), AX
	CMPQ         AX, SI
	JAE          ubad
	SHLQ         $6, AX
	VBROADCASTSD (R10)(DX*8), Y4
	VMULPD       Y0, Y4, Y5
	VMULPD       Y1, Y4, Y6
	VMOVUPD      (DI)(AX*1), Y7
	VSUBPD       Y5, Y7, Y7
	VMOVUPD      Y7, (DI)(AX*1)
	VMOVUPD      32(DI)(AX*1), Y8
	VSUBPD       Y6, Y8, Y8
	VMOVUPD      Y8, 32(DI)(AX*1)
	INCQ         DX
	CMPQ         DX, R12
	JLT          urow
	JMP          ucol

udone:
	VZEROUPPER
	MOVQ $-1, bad+120(FP)
	RET

ubad:
	VZEROUPPER
	MOVQ BX, bad+120(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
