#include "textflag.h"

// AVX2/FMA register tiles. Both kernels keep a 6-row × 2-YMM accumulator
// block in Y0–Y11 (row i in Y(2i), Y(2i+1)), stream one packed B row into
// Y12/Y13 per rank-1 step and broadcast the six packed A values through
// Y14/Y15. They read exactly kc·6 elements of a and kc·(2 YMM) elements of
// b, and write exactly the first 12 YMM (384 bytes) of acc: caller memory is
// never touched from here. Each accumulator lane sums in ascending p, the
// order the Go tile uses.

// STEP is one rank-1 update. LD/BC/FMA are the load, broadcast and fused
// multiply-add of the element type, ES its size in bytes; AO and BO are the
// byte offsets of this step's A and B rows from SI and DI.
#define STEP(LD, BC, FMA, ES, AO, BO) \
	LD   BO(DI), Y12;          \
	LD   (BO+32)(DI), Y13;     \
	BC   AO(SI), Y14;          \
	BC   (AO+ES)(SI), Y15;     \
	FMA  Y12, Y14, Y0;         \
	FMA  Y13, Y14, Y1;         \
	FMA  Y12, Y15, Y2;         \
	FMA  Y13, Y15, Y3;         \
	BC   (AO+2*ES)(SI), Y14;   \
	BC   (AO+3*ES)(SI), Y15;   \
	FMA  Y12, Y14, Y4;         \
	FMA  Y13, Y14, Y5;         \
	FMA  Y12, Y15, Y6;         \
	FMA  Y13, Y15, Y7;         \
	BC   (AO+4*ES)(SI), Y14;   \
	BC   (AO+5*ES)(SI), Y15;   \
	FMA  Y12, Y14, Y8;         \
	FMA  Y13, Y14, Y9;         \
	FMA  Y12, Y15, Y10;        \
	FMA  Y13, Y15, Y11

// KERNEL is the whole tile: zero the accumulators, run kc steps (unrolled
// four times, then one at a time), store the block. An A row is 6·ES bytes,
// a B row always 64.
#define KERNEL(LD, BC, FMA, ES) \
	MOVQ a+0(FP), SI;    \
	MOVQ b+8(FP), DI;    \
	MOVQ kc+16(FP), CX;  \
	MOVQ acc+24(FP), DX; \
	VXORPS Y0, Y0, Y0;   \
	VXORPS Y1, Y1, Y1;   \
	VXORPS Y2, Y2, Y2;   \
	VXORPS Y3, Y3, Y3;   \
	VXORPS Y4, Y4, Y4;   \
	VXORPS Y5, Y5, Y5;   \
	VXORPS Y6, Y6, Y6;   \
	VXORPS Y7, Y7, Y7;   \
	VXORPS Y8, Y8, Y8;   \
	VXORPS Y9, Y9, Y9;   \
	VXORPS Y10, Y10, Y10; \
	VXORPS Y11, Y11, Y11; \
	MOVQ CX, BX;         \
	SHRQ $2, BX;         \
	JZ   tail;           \
loop4:                   \
	STEP(LD, BC, FMA, ES, 0, 0);        \
	STEP(LD, BC, FMA, ES, 6*ES, 64);    \
	STEP(LD, BC, FMA, ES, 12*ES, 128);  \
	STEP(LD, BC, FMA, ES, 18*ES, 192);  \
	ADDQ $(24*ES), SI;   \
	ADDQ $256, DI;       \
	DECQ BX;             \
	JNZ  loop4;          \
tail:                    \
	ANDQ $3, CX;         \
	JZ   store;          \
loop1:                   \
	STEP(LD, BC, FMA, ES, 0, 0); \
	ADDQ $(6*ES), SI;    \
	ADDQ $64, DI;        \
	DECQ CX;             \
	JNZ  loop1;          \
store:                   \
	VMOVUPS Y0, 0(DX);   \
	VMOVUPS Y1, 32(DX);  \
	VMOVUPS Y2, 64(DX);  \
	VMOVUPS Y3, 96(DX);  \
	VMOVUPS Y4, 128(DX); \
	VMOVUPS Y5, 160(DX); \
	VMOVUPS Y6, 192(DX); \
	VMOVUPS Y7, 224(DX); \
	VMOVUPS Y8, 256(DX); \
	VMOVUPS Y9, 288(DX); \
	VMOVUPS Y10, 320(DX); \
	VMOVUPS Y11, 352(DX); \
	VZEROUPPER;          \
	RET

// func sgemmKernel6x16(a, b *float32, kc int, acc *[maxTile]float32)
TEXT ·sgemmKernel6x16(SB), NOSPLIT, $0-32
	KERNEL(VMOVUPS, VBROADCASTSS, VFMADD231PS, 4)

// func dgemmKernel6x8(a, b *float64, kc int, acc *[maxTile]float64)
TEXT ·dgemmKernel6x8(SB), NOSPLIT, $0-32
	KERNEL(VMOVUPD, VBROADCASTSD, VFMADD231PD, 8)

// func spinHint()
TEXT ·spinHint(SB), NOSPLIT, $0-0
	PAUSE
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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
