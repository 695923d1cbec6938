#include "textflag.h"

// AVX2/FMA register tiles (the AVX-512 ones, ZTILE, follow them). Both
// kernels keep a 6-row × 2-YMM accumulator block in Y0–Y11 (row i in Y(2i),
// Y(2i+1)), stream one packed B row into Y12/Y13 per rank-1 step and
// broadcast the six packed A values through Y14/Y15. They read exactly kc·6
// elements of a and kc·(2 YMM) elements of b. Each accumulator lane sums in
// ascending p, the order the Go tile uses.
// The block never visits memory on its own: the epilogue scales it by alpha
// and stores it as six rows of two YMM at c, ldc elements apart, in one of
// three ways (the mode argument; storeSet, storeAdd, storeScale in
// kernel.go). Only those 6 × 64 bytes are written; storeSet never loads them.

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

// The three stores of one accumulator row (R0, R1, already scaled by alpha,
// W bytes each) to the C row at DX; each steps DX to the next row (R8 is ldc
// in bytes). The operand order of every multiply and add is the one gc emits
// for storeTile's scalar statements, so even a NaN keeps the payload it has
// there. Both tiles share them: W is 32 with Y registers, 64 with Z.
#define ROWSET(LD, W, R0, R1) \
	LD   R0, (DX);         \
	LD   R1, W(DX);        \
	ADDQ R8, DX

#define ROWADD(LD, ADD, W, R0, R1) \
	ADD  (DX), R0, R0;     \
	ADD  W(DX), R1, R1;    \
	ROWSET(LD, W, R0, R1)

// BETA holds beta; S0 and S1 are scratch.
#define ROWSCALE(LD, MUL, ADD, W, R0, R1, S0, S1, BETA) \
	LD   (DX), S0;         \
	LD   W(DX), S1;        \
	MUL  BETA, S0, S0;     \
	MUL  BETA, S1, S1;     \
	ADD  R0, S0, S0;       \
	ADD  R1, S1, S1;       \
	ROWSET(LD, W, S0, S1)

// TILE is the whole tile: zero the accumulators, run the CX steps (unrolled
// four times, then one at a time) over the panels at SI and DI, scale by the
// alpha at (R9) and store at DX by the mode in R11 (beta at (R10), ldc in
// elements in R8). An A row is 6·ES bytes, a B row always 64. alpha·acc and
// beta·c are rounded before they are added (MUL then ADD, never a fused
// multiply-add): that is what the Go store of an edge tile computes.
#define TILE(LD, BC, FMA, MUL, ADD, ES) \
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
	JZ   scale;          \
loop1:                   \
	STEP(LD, BC, FMA, ES, 0, 0); \
	ADDQ $(6*ES), SI;    \
	ADDQ $64, DI;        \
	DECQ CX;             \
	JNZ  loop1;          \
scale:                   \
	IMUL3Q $ES, R8, R8;  \
	BC   (R9), Y14;      \
	MUL  Y14, Y0, Y0;    \
	MUL  Y14, Y1, Y1;    \
	MUL  Y14, Y2, Y2;    \
	MUL  Y14, Y3, Y3;    \
	MUL  Y14, Y4, Y4;    \
	MUL  Y14, Y5, Y5;    \
	MUL  Y14, Y6, Y6;    \
	MUL  Y14, Y7, Y7;    \
	MUL  Y14, Y8, Y8;    \
	MUL  Y14, Y9, Y9;    \
	MUL  Y14, Y10, Y10;  \
	MUL  Y14, Y11, Y11;  \
	CMPQ R11, $1;        \
	JEQ  add;            \
	JHI  axpby;          \
	ROWSET(LD, 32, Y0, Y1);  \
	ROWSET(LD, 32, Y2, Y3);  \
	ROWSET(LD, 32, Y4, Y5);  \
	ROWSET(LD, 32, Y6, Y7);  \
	ROWSET(LD, 32, Y8, Y9);  \
	ROWSET(LD, 32, Y10, Y11); \
	VZEROUPPER;          \
	RET;                 \
add:                     \
	ROWADD(LD, ADD, 32, Y0, Y1);  \
	ROWADD(LD, ADD, 32, Y2, Y3);  \
	ROWADD(LD, ADD, 32, Y4, Y5);  \
	ROWADD(LD, ADD, 32, Y6, Y7);  \
	ROWADD(LD, ADD, 32, Y8, Y9);  \
	ROWADD(LD, ADD, 32, Y10, Y11); \
	VZEROUPPER;          \
	RET;                 \
axpby:                   \
	BC   (R10), Y15;     \
	ROWSCALE(LD, MUL, ADD, 32, Y0, Y1, Y12, Y13, Y15);  \
	ROWSCALE(LD, MUL, ADD, 32, Y2, Y3, Y12, Y13, Y15);  \
	ROWSCALE(LD, MUL, ADD, 32, Y4, Y5, Y12, Y13, Y15);  \
	ROWSCALE(LD, MUL, ADD, 32, Y6, Y7, Y12, Y13, Y15);  \
	ROWSCALE(LD, MUL, ADD, 32, Y8, Y9, Y12, Y13, Y15);  \
	ROWSCALE(LD, MUL, ADD, 32, Y10, Y11, Y12, Y13, Y15); \
	VZEROUPPER;          \
	RET

// The AVX-512 register tiles: TILE on ZMM registers, so one B row is two
// 64-byte registers (6×32 in float32, 6×16 in float64) and each rank-1 step
// does twice the work of a YMM step for the same twelve multiply-adds. Z0–Z11
// accumulate, Z12/Z13 stream B and Z14/Z15 broadcast A, exactly as in TILE;
// every lane still sums in ascending p with one rounding per multiply-add,
// so an element's bits do not depend on which tile computed it. Every
// instruction is AVX512F. Only Z0–Z15 are touched, so the closing VZEROUPPER
// leaves no dirty upper state behind.
#define ZSTEP(LD, BC, FMA, ES, AO, BO) \
	LD   BO(DI), Z12;          \
	LD   (BO+64)(DI), Z13;     \
	BC   AO(SI), Z14;          \
	BC   (AO+ES)(SI), Z15;     \
	FMA  Z12, Z14, Z0;         \
	FMA  Z13, Z14, Z1;         \
	FMA  Z12, Z15, Z2;         \
	FMA  Z13, Z15, Z3;         \
	BC   (AO+2*ES)(SI), Z14;   \
	BC   (AO+3*ES)(SI), Z15;   \
	FMA  Z12, Z14, Z4;         \
	FMA  Z13, Z14, Z5;         \
	FMA  Z12, Z15, Z6;         \
	FMA  Z13, Z15, Z7;         \
	BC   (AO+4*ES)(SI), Z14;   \
	BC   (AO+5*ES)(SI), Z15;   \
	FMA  Z12, Z14, Z8;         \
	FMA  Z13, Z14, Z9;         \
	FMA  Z12, Z15, Z10;        \
	FMA  Z13, Z15, Z11

// ZTILE is TILE with a 128-byte B row and the same arguments and epilogue.
#define ZTILE(LD, BC, FMA, MUL, ADD, ES) \
	VPXORD Z0, Z0, Z0;   \
	VPXORD Z1, Z1, Z1;   \
	VPXORD Z2, Z2, Z2;   \
	VPXORD Z3, Z3, Z3;   \
	VPXORD Z4, Z4, Z4;   \
	VPXORD Z5, Z5, Z5;   \
	VPXORD Z6, Z6, Z6;   \
	VPXORD Z7, Z7, Z7;   \
	VPXORD Z8, Z8, Z8;   \
	VPXORD Z9, Z9, Z9;   \
	VPXORD Z10, Z10, Z10; \
	VPXORD Z11, Z11, Z11; \
	MOVQ CX, BX;         \
	SHRQ $2, BX;         \
	JZ   tail;           \
loop4:                   \
	ZSTEP(LD, BC, FMA, ES, 0, 0);        \
	ZSTEP(LD, BC, FMA, ES, 6*ES, 128);   \
	ZSTEP(LD, BC, FMA, ES, 12*ES, 256);  \
	ZSTEP(LD, BC, FMA, ES, 18*ES, 384);  \
	ADDQ $(24*ES), SI;   \
	ADDQ $512, DI;       \
	DECQ BX;             \
	JNZ  loop4;          \
tail:                    \
	ANDQ $3, CX;         \
	JZ   scale;          \
loop1:                   \
	ZSTEP(LD, BC, FMA, ES, 0, 0); \
	ADDQ $(6*ES), SI;    \
	ADDQ $128, DI;       \
	DECQ CX;             \
	JNZ  loop1;          \
scale:                   \
	IMUL3Q $ES, R8, R8;  \
	BC   (R9), Z14;      \
	MUL  Z14, Z0, Z0;    \
	MUL  Z14, Z1, Z1;    \
	MUL  Z14, Z2, Z2;    \
	MUL  Z14, Z3, Z3;    \
	MUL  Z14, Z4, Z4;    \
	MUL  Z14, Z5, Z5;    \
	MUL  Z14, Z6, Z6;    \
	MUL  Z14, Z7, Z7;    \
	MUL  Z14, Z8, Z8;    \
	MUL  Z14, Z9, Z9;    \
	MUL  Z14, Z10, Z10;  \
	MUL  Z14, Z11, Z11;  \
	CMPQ R11, $1;        \
	JEQ  add;            \
	JHI  axpby;          \
	ROWSET(LD, 64, Z0, Z1);  \
	ROWSET(LD, 64, Z2, Z3);  \
	ROWSET(LD, 64, Z4, Z5);  \
	ROWSET(LD, 64, Z6, Z7);  \
	ROWSET(LD, 64, Z8, Z9);  \
	ROWSET(LD, 64, Z10, Z11); \
	VZEROUPPER;          \
	RET;                 \
add:                     \
	ROWADD(LD, ADD, 64, Z0, Z1);  \
	ROWADD(LD, ADD, 64, Z2, Z3);  \
	ROWADD(LD, ADD, 64, Z4, Z5);  \
	ROWADD(LD, ADD, 64, Z6, Z7);  \
	ROWADD(LD, ADD, 64, Z8, Z9);  \
	ROWADD(LD, ADD, 64, Z10, Z11); \
	VZEROUPPER;          \
	RET;                 \
axpby:                   \
	BC   (R10), Z15;     \
	ROWSCALE(LD, MUL, ADD, 64, Z0, Z1, Z12, Z13, Z15);  \
	ROWSCALE(LD, MUL, ADD, 64, Z2, Z3, Z12, Z13, Z15);  \
	ROWSCALE(LD, MUL, ADD, 64, Z4, Z5, Z12, Z13, Z15);  \
	ROWSCALE(LD, MUL, ADD, 64, Z6, Z7, Z12, Z13, Z15);  \
	ROWSCALE(LD, MUL, ADD, 64, Z8, Z9, Z12, Z13, Z15);  \
	ROWSCALE(LD, MUL, ADD, 64, Z10, Z11, Z12, Z13, Z15); \
	VZEROUPPER;          \
	RET

// In-register transposes, one primitive per precision, for the three places
// that turn source rows into columns: the mirror of a symmetric update, the
// B panels of its lower pass and the A panels of every untransposed call.
// Both primitives work on the two 128-bit lanes of a YMM register at once and
// leave the lane crossing to the loads: a register is filled with the same
// 16 bytes of two source rows half a block apart (VMOVUPS into the low lane,
// VINSERTF128 from memory into the high one), so a transposed column comes
// out with its rows already in order.

// TR4PS transposes, in each lane separately, the 4×4 float32 block whose rows
// are the lanes of A, B, C, D; column c replaces the c-th of them. T0–T3 are
// scratch.
#define TR4PS(A, B, C, D, T0, T1, T2, T3) \
	VUNPCKLPS B, A, T0;   \
	VUNPCKHPS B, A, T1;   \
	VUNPCKLPS D, C, T2;   \
	VUNPCKHPS D, C, T3;   \
	VUNPCKLPD T2, T0, A;  \
	VUNPCKHPD T2, T0, B;  \
	VUNPCKLPD T3, T1, C;  \
	VUNPCKHPD T3, T1, D

// ROWS6PS loads eight columns of the six source rows at AX (R8 bytes apart;
// R10 = 3·R8): rows r and r+4 share a register, columns 0–3 in Y0–Y3 and 4–7
// in Y4–Y7. The high lanes of Y2, Y3, Y6 and Y7, where rows 6 and 7 belong,
// are left zero.
#define ROWS6PS \
	LEAQ (AX)(R8*4), R11;        \
	VMOVUPS (AX), X0;            \
	VMOVUPS (AX)(R8*1), X1;      \
	VMOVUPS (AX)(R8*2), X2;      \
	VMOVUPS (AX)(R10*1), X3;     \
	VMOVUPS 16(AX), X4;          \
	VMOVUPS 16(AX)(R8*1), X5;    \
	VMOVUPS 16(AX)(R8*2), X6;    \
	VMOVUPS 16(AX)(R10*1), X7;   \
	VINSERTF128 $1, (R11), Y0, Y0;          \
	VINSERTF128 $1, (R11)(R8*1), Y1, Y1;    \
	VINSERTF128 $1, 16(R11), Y4, Y4;        \
	VINSERTF128 $1, 16(R11)(R8*1), Y5, Y5

// COLS8PS finishes the transpose of what ROWS6PS loaded: Yc becomes column c,
// source rows 0–3 in its low lane and 4–7 in its high lane.
#define COLS8PS \
	TR4PS(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11); \
	TR4PS(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

// BLOCK8PS moves one 8×8 float32 block from AX to BX: all eight source rows
// loaded, and column c stored as row c of the destination (R9 bytes apart;
// R12 = 3·R9).
#define BLOCK8PS \
	ROWS6PS;                     \
	VINSERTF128 $1, (R11)(R8*2), Y2, Y2;    \
	VINSERTF128 $1, (R11)(R10*1), Y3, Y3;   \
	VINSERTF128 $1, 16(R11)(R8*2), Y6, Y6;  \
	VINSERTF128 $1, 16(R11)(R10*1), Y7, Y7; \
	COLS8PS;                     \
	LEAQ (BX)(R9*4), R13;        \
	VMOVUPS Y0, (BX);            \
	VMOVUPS Y1, (BX)(R9*1);      \
	VMOVUPS Y2, (BX)(R9*2);      \
	VMOVUPS Y3, (BX)(R12*1);     \
	VMOVUPS Y4, (R13);           \
	VMOVUPS Y5, (R13)(R9*1);     \
	VMOVUPS Y6, (R13)(R9*2);     \
	VMOVUPS Y7, (R13)(R12*1)

// COLS4PD loads four columns of the four source rows at AX the same way —
// rows r and r+2 share a register, columns 0–1 in Y0/Y1 and 2–3 in Y2/Y3 —
// and one unpack per column finishes the transpose: Y4–Y7 are columns 0–3.
// R11 is left at row 2.
#define COLS4PD \
	LEAQ (AX)(R8*2), R11;        \
	VMOVUPD (AX), X0;            \
	VMOVUPD (AX)(R8*1), X1;      \
	VMOVUPD 16(AX), X2;          \
	VMOVUPD 16(AX)(R8*1), X3;    \
	VINSERTF128 $1, (R11), Y0, Y0;         \
	VINSERTF128 $1, (R11)(R8*1), Y1, Y1;   \
	VINSERTF128 $1, 16(R11), Y2, Y2;       \
	VINSERTF128 $1, 16(R11)(R8*1), Y3, Y3; \
	VUNPCKLPD Y1, Y0, Y4;        \
	VUNPCKHPD Y1, Y0, Y5;        \
	VUNPCKLPD Y3, Y2, Y6;        \
	VUNPCKHPD Y3, Y2, Y7

// BLOCK4PD moves one 4×4 float64 block from AX to BX.
#define BLOCK4PD \
	COLS4PD;                     \
	VMOVUPD Y4, (BX);            \
	VMOVUPD Y5, (BX)(R9*1);      \
	VMOVUPD Y6, (BX)(R9*2);      \
	VMOVUPD Y7, (BX)(R12*1)

// TRANSPOSE writes the transpose of the CX×DX block at SI (rows R8 elements
// apart) to DI (rows R9 elements apart), BLOCK by BLOCK: B = 1<<LB elements
// of 1<<LS bytes, 32 bytes either way. The source is walked eight (four) whole
// rows at a time, left to right, so it is read as that many sequential
// streams; CX and DX are multiples of B and whatever is left of either after
// the last whole block is not touched.
#define TRANSPOSE(LS, LB, B, BLOCK) \
	SHLQ $LS, R8;        \
	SHLQ $LS, R9;        \
	LEAQ (R8)(R8*2), R10; \
	LEAQ (R9)(R9*2), R12; \
	SHRQ $LB, CX;        \
	JZ   done;           \
	SHRQ $LB, DX;        \
	JZ   done;           \
rows:                    \
	MOVQ SI, AX;         \
	MOVQ DI, BX;         \
	MOVQ DX, R14;        \
cols:                    \
	BLOCK;               \
	ADDQ $32, AX;        \
	LEAQ (BX)(R9*B), BX; \
	DECQ R14;            \
	JNZ  cols;           \
	LEAQ (SI)(R8*B), SI; \
	ADDQ $32, DI;        \
	DECQ CX;             \
	JNZ  rows;           \
done:                    \
	VZEROUPPER;          \
	RET

// func sgemmTile6x16(a, b *float32, kc int, c *float32, ldc int, alpha, beta float32, mode int)
TEXT ·sgemmTile6x16(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ kc+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	LEAQ alpha+40(FP), R9
	LEAQ beta+44(FP), R10
	MOVQ mode+48(FP), R11
	TILE(VMOVUPS, VBROADCASTSS, VFMADD231PS, VMULPS, VADDPS, 4)

// func dgemmTile6x8(a, b *float64, kc int, c *float64, ldc int, alpha, beta float64, mode int)
TEXT ·dgemmTile6x8(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ kc+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	LEAQ alpha+40(FP), R9
	LEAQ beta+48(FP), R10
	MOVQ mode+56(FP), R11
	TILE(VMOVUPD, VBROADCASTSD, VFMADD231PD, VMULPD, VADDPD, 8)

// func sgemmTile6x32(a, b *float32, kc int, c *float32, ldc int, alpha, beta float32, mode int)
TEXT ·sgemmTile6x32(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ kc+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	LEAQ alpha+40(FP), R9
	LEAQ beta+44(FP), R10
	MOVQ mode+48(FP), R11
	ZTILE(VMOVUPS, VBROADCASTSS, VFMADD231PS, VMULPS, VADDPS, 4)

// func dgemmTile6x16(a, b *float64, kc int, c *float64, ldc int, alpha, beta float64, mode int)
TEXT ·dgemmTile6x16(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ kc+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	LEAQ alpha+40(FP), R9
	LEAQ beta+48(FP), R10
	MOVQ mode+56(FP), R11
	ZTILE(VMOVUPD, VBROADCASTSD, VFMADD231PD, VMULPD, VADDPD, 8)

// func stranspose(dst *float32, ldd int, src *float32, lds, m, n int)
TEXT ·stranspose(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R9
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R8
	MOVQ m+32(FP), CX
	MOVQ n+40(FP), DX
	TRANSPOSE(2, 3, 8, BLOCK8PS)

// func dtranspose(dst *float64, ldd int, src *float64, lds, m, n int)
TEXT ·dtranspose(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R9
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R8
	MOVQ m+32(FP), CX
	MOVQ n+40(FP), DX
	TRANSPOSE(3, 2, 4, BLOCK4PD)

// func spackA6(dst, src *float32, lds, n int)
//
// Six source rows, eight columns a turn: column p comes out of COLS8PS as
// a0p a1p a2p a3p | a4p a5p 0 0, and the panel wants the six of them every 24
// bytes. Columns 0–6 are stored whole, in order, each overwriting the two
// zeros of the one before, and column 7 in two pieces that end exactly at
// byte 192.
TEXT ·spackA6(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), AX
	MOVQ lds+16(FP), R8
	MOVQ n+24(FP), CX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R10
	SHRQ $3, CX
	JZ   done
loop:
	ROWS6PS
	COLS8PS
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 24(DI)
	VMOVUPS Y2, 48(DI)
	VMOVUPS Y3, 72(DI)
	VMOVUPS Y4, 96(DI)
	VMOVUPS Y5, 120(DI)
	VMOVUPS Y6, 144(DI)
	VMOVUPS X7, 168(DI)
	VEXTRACTF128 $1, Y7, X7
	VMOVLPS X7, 184(DI)
	ADDQ $32, AX
	ADDQ $192, DI
	DECQ CX
	JNZ  loop
done:
	VZEROUPPER
	RET

// func dpackA6(dst, src *float64, lds, n int)
//
// Six source rows, four columns a turn: rows 0–3 are COLS4PD's 4×4, rows 4
// and 5 a 2×4 in XMM registers, and column p is stored as 32 + 16 bytes.
TEXT ·dpackA6(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), AX
	MOVQ lds+16(FP), R8
	MOVQ n+24(FP), CX
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R10
	SHRQ $2, CX
	JZ   done
loop:
	COLS4PD
	VMOVUPD (R11)(R8*2), X8
	VMOVUPD (R11)(R10*1), X9
	VMOVUPD 16(R11)(R8*2), X10
	VMOVUPD 16(R11)(R10*1), X11
	VUNPCKLPD X9, X8, X12
	VUNPCKHPD X9, X8, X13
	VUNPCKLPD X11, X10, X14
	VUNPCKHPD X11, X10, X15
	VMOVUPD Y4, (DI)
	VMOVUPD X12, 32(DI)
	VMOVUPD Y5, 48(DI)
	VMOVUPD X13, 80(DI)
	VMOVUPD Y6, 96(DI)
	VMOVUPD X14, 128(DI)
	VMOVUPD Y7, 144(DI)
	VMOVUPD X15, 176(DI)
	ADDQ $32, AX
	ADDQ $192, DI
	DECQ CX
	JNZ  loop
done:
	VZEROUPPER
	RET

// COPYROWS is the untransposed B panel of a vector tile: CX rows of two
// W-byte registers (R0, R1), R8 bytes apart at SI, back to back at DI.
#define COPYROWS(W, R0, R1) \
	TESTQ CX, CX;        \
	JZ   done;           \
loop:                    \
	VMOVUPS (SI), R0;    \
	VMOVUPS W(SI), R1;   \
	VMOVUPS R0, (DI);    \
	VMOVUPS R1, W(DI);   \
	ADDQ R8, SI;         \
	ADDQ $(2*W), DI;     \
	DECQ CX;             \
	JNZ  loop;           \
done:                    \
	VZEROUPPER;          \
	RET

// func copyRows64(dst, src unsafe.Pointer, ldsBytes, rows int)
//
// The YMM tile's rows: 64 bytes.
TEXT ·copyRows64(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ldsBytes+16(FP), R8
	MOVQ rows+24(FP), CX
	COPYROWS(32, Y0, Y1)

// func copyRows128(dst, src unsafe.Pointer, ldsBytes, rows int)
//
// The ZMM tile's rows: 128 bytes.
TEXT ·copyRows128(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ldsBytes+16(FP), R8
	MOVQ rows+24(FP), CX
	COPYROWS(64, Z0, Z1)

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
