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

// SCALEC is storeScale's arithmetic on one register: S holds c and becomes
// (c ⊗ beta) ⊕ R, beta in BETA and R the scaled sum. The small path's
// epilogue is built on it too.
#define SCALEC(MUL, ADD, S, R, BETA) \
	MUL  BETA, S, S;       \
	ADD  R, S, S

// BETA holds beta; S0 and S1 are scratch.
#define ROWSCALE(LD, MUL, ADD, W, R0, R1, S0, S1, BETA) \
	LD   (DX), S0;         \
	LD   W(DX), S1;        \
	SCALEC(MUL, ADD, S0, R0, BETA); \
	SCALEC(MUL, ADD, S1, R1, BETA); \
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

// The small path on YMM registers, one call per BLAS call (one per pass of
// SYR2K), reading its operands in place. A lane of a YMM register is one
// column j of C, and it computes exactly what the packed tile computes for
// that element: a +0 accumulator, one fused multiply-add per p in ascending
// p with the tile's operand roles — the lane operand where the tile has its
// B row, the broadcast where it has A —, then alpha ⊗ acc, stored by
// storeSet or by storeScale's SCALEC. The bits are the tile's, NaN payloads
// included (an SSE/AVX operation returns its first NaN source; in Go syntax
// that is the middle operand: MUL Y2, Y1, Y3 is Y3 = Y1 ⊗ Y2).
//
// C is walked in groups of rows: eight at a time where more than four rows
// are left and the group's columns fit one vector (C at most one vector
// wide, the first rows of a lower pass), else four, each row left to right
// in tiles of two vectors or of one. Every element sums in one chain, so
// more rows mean more chains in flight, not another order. Whole vectors go with plain loads and stores,
// at most one edge vector per row, at its end, through the mask in Y15
// (VMASKMOVPS, which neither reads nor writes a masked-out lane, so nothing
// past the row is touched). The operand read along j is the lane operand;
// the other one is broadcast, one element per p.

// edgemask is 32 bytes of ones and 32 of zeros: the mask of an edge vector
// of R bytes (0 < R < 32) is the 32 bytes at edgemask<>+32−R. VMASKMOVPS
// reads the top bit of every four bytes, so one table serves both precisions.
DATA edgemask<>+0(SB)/8, $-1
DATA edgemask<>+8(SB)/8, $-1
DATA edgemask<>+16(SB)/8, $-1
DATA edgemask<>+24(SB)/8, $-1
DATA edgemask<>+32(SB)/8, $0
DATA edgemask<>+40(SB)/8, $0
DATA edgemask<>+48(SB)/8, $0
DATA edgemask<>+56(SB)/8, $0
GLOBL edgemask<>(SB), RODATA|NOPTR, $64

// The loads and stores of a whole vector (…F) and of the edge (…M). Data
// moves as bits, so the single-precision forms serve float64 too.
#define LDF(M, D) VMOVUPS M, D
#define LDM(M, D) VMASKMOVPS M, Y15, D
#define STF(S, M) VMOVUPS S, M
#define STM(S, M) VMASKMOVPS S, Y15, M

// EDGE loads the mask of an edge of R bytes into Y15; T is scratch.
#define EDGE(R, T) \
	LEAQ edgemask<>+32(SB), T; \
	SUBQ R, T;                 \
	VMOVDQU (T), Y15

// STAGE makes the lane operand row-major. If its stride along j,
// R9 (elements), is 1 it is read in place. Otherwise it is op(M)ᵀ of a
// row-major M at R8, n rows of k, R9 apart — y(p, j) = M(j, p), and the p
// stride R13 is 1 — and is transposed block by block (LOADS, TR, STORES: VL
// rows of VL elements, the vector length) into DI, k rows of n, each padded
// to whole vectors. A block's loads are masked where a row of M ends inside
// it; source rows past n repeat the last one and land in the padding lanes,
// which no store to C reads. Afterwards R8 and R13 are the staged operand
// and its row length, DI is past it (k rounded up to whole blocks of rows),
// CX = k and R11 = n are kept; AX, BX, DX, R10, R12, R14, SI and all Y
// registers are clobbered.
#define STAGE(LOADS, TR, STORES, LS, LV, VM, ES, LR, LC, LF, LB, LD) \
	CMPQ R9, $1;         \
	JEQ  LD;             \
	SHLQ $LS, R9;        \
	LEAQ VM(R11), R10;   \
	SHRQ $LV, R10;       \
	SHLQ $(LV+LS), R10;  \
	MOVQ R8, SI;         \
	MOVQ DI, R8;         \
	XORQ R12, R12;       \
LR:                      \
	XORQ BX, BX;         \
	MOVQ SI, DX;         \
LC:                      \
	MOVQ R11, R14;       \
	SUBQ BX, R14;        \
	DECQ R14;            \
	MOVQ CX, AX;         \
	SUBQ R12, AX;        \
	CMPQ AX, $VM;        \
	JGT  LF;             \
	SHLQ $LS, AX;        \
	EDGE(AX, R13);       \
	LOADS(LDM);          \
	JMP  LB;             \
LF:                      \
	LOADS(LDF);          \
LB:                      \
	TR;                  \
	MOVQ R12, AX;        \
	IMULQ R10, AX;       \
	ADDQ R8, AX;         \
	LEAQ (AX)(BX*ES), AX; \
	STORES;              \
	ADDQ $(VM+1), BX;    \
	MOVQ BX, AX;         \
	IMULQ R9, AX;        \
	LEAQ (SI)(AX*1), DX; \
	CMPQ BX, R11;        \
	JLT  LC;             \
	ADDQ $(VM+1), R12;   \
	ADDQ $((VM+1)*ES), SI; \
	CMPQ R12, CX;        \
	JLT  LR;             \
	MOVQ R10, R13;       \
	SHRQ $LS, R13;       \
	IMULQ R10, R12;      \
	LEAQ (R8)(R12*1), DI; \
LD:

// NEXTROW steps DX to the next source row of a block if there is one: R14
// counts the rows left after the current one, R is the current row's index
// in the block.
#define NEXTROW(R) \
	LEAQ (DX)(R9*1), AX; \
	CMPQ R14, $R;        \
	CMOVQGT AX, DX

// The single-precision block: eight rows into Y0–Y7, transposed into Y8–Y15
// (unpack pairs, shuffle quads, swap 128-bit lanes), stored as eight rows at
// AX, R10 bytes apart.
#define LOADS8(LDL) \
	LDL((DX), Y0);       \
	NEXTROW(0);          \
	LDL((DX), Y1);       \
	NEXTROW(1);          \
	LDL((DX), Y2);       \
	NEXTROW(2);          \
	LDL((DX), Y3);       \
	NEXTROW(3);          \
	LDL((DX), Y4);       \
	NEXTROW(4);          \
	LDL((DX), Y5);       \
	NEXTROW(5);          \
	LDL((DX), Y6);       \
	NEXTROW(6);          \
	LDL((DX), Y7)

#define TR8PS \
	VUNPCKLPS Y1, Y0, Y8;  \
	VUNPCKHPS Y1, Y0, Y9;  \
	VUNPCKLPS Y3, Y2, Y10; \
	VUNPCKHPS Y3, Y2, Y11; \
	VUNPCKLPS Y5, Y4, Y12; \
	VUNPCKHPS Y5, Y4, Y13; \
	VUNPCKLPS Y7, Y6, Y14; \
	VUNPCKHPS Y7, Y6, Y15; \
	VSHUFPS $0x44, Y10, Y8, Y0;  \
	VSHUFPS $0xEE, Y10, Y8, Y1;  \
	VSHUFPS $0x44, Y11, Y9, Y2;  \
	VSHUFPS $0xEE, Y11, Y9, Y3;  \
	VSHUFPS $0x44, Y14, Y12, Y4; \
	VSHUFPS $0xEE, Y14, Y12, Y5; \
	VSHUFPS $0x44, Y15, Y13, Y6; \
	VSHUFPS $0xEE, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8;  \
	VPERM2F128 $0x20, Y5, Y1, Y9;  \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x31, Y4, Y0, Y12; \
	VPERM2F128 $0x31, Y5, Y1, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y14; \
	VPERM2F128 $0x31, Y7, Y3, Y15

#define STORES8 \
	VMOVUPS Y8, (AX);    \
	ADDQ R10, AX;        \
	VMOVUPS Y9, (AX);    \
	ADDQ R10, AX;        \
	VMOVUPS Y10, (AX);   \
	ADDQ R10, AX;        \
	VMOVUPS Y11, (AX);   \
	ADDQ R10, AX;        \
	VMOVUPS Y12, (AX);   \
	ADDQ R10, AX;        \
	VMOVUPS Y13, (AX);   \
	ADDQ R10, AX;        \
	VMOVUPS Y14, (AX);   \
	ADDQ R10, AX;        \
	VMOVUPS Y15, (AX)

// The double-precision block: four rows into Y0–Y3, transposed in place.
#define LOADS4(LDL) \
	LDL((DX), Y0);       \
	NEXTROW(0);          \
	LDL((DX), Y1);       \
	NEXTROW(1);          \
	LDL((DX), Y2);       \
	NEXTROW(2);          \
	LDL((DX), Y3)

#define TR4PD \
	VUNPCKLPD Y1, Y0, Y4; \
	VUNPCKHPD Y1, Y0, Y5; \
	VUNPCKLPD Y3, Y2, Y6; \
	VUNPCKHPD Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

#define STORES4 \
	VMOVUPS Y0, (AX);    \
	ADDQ R10, AX;        \
	VMOVUPS Y1, (AX);    \
	ADDQ R10, AX;        \
	VMOVUPS Y2, (AX);    \
	ADDQ R10, AX;        \
	VMOVUPS Y3, (AX)

// The p loops, CX = k steps over four rows of C: the lane operand at R10
// steps R13 bytes, the broadcast x(i0+r, p) is at (AX, BX, DX, SI)+R12 and
// R12 steps R11 bytes. P42 runs two vectors of lanes, the second loaded by
// LD1; row r sums in Y(2r) and Y(2r+1). P41 runs one vector, loaded by LD0;
// row r sums in Y(r).
#define P42(BC, FMA, LD1, L) \
L:                        \
	LDF((R10), Y8);       \
	LD1(32(R10), Y9);     \
	BC   (AX)(R12*1), Y10; \
	BC   (BX)(R12*1), Y11; \
	FMA  Y8, Y10, Y0;     \
	FMA  Y9, Y10, Y1;     \
	FMA  Y8, Y11, Y2;     \
	FMA  Y9, Y11, Y3;     \
	BC   (DX)(R12*1), Y10; \
	BC   (SI)(R12*1), Y11; \
	FMA  Y8, Y10, Y4;     \
	FMA  Y9, Y10, Y5;     \
	FMA  Y8, Y11, Y6;     \
	FMA  Y9, Y11, Y7;     \
	ADDQ R11, R12;        \
	ADDQ R13, R10;        \
	DECQ CX;              \
	JNZ  L

#define P41(BC, FMA, LD0, L) \
L:                        \
	LD0((R10), Y8);       \
	BC   (AX)(R12*1), Y10; \
	BC   (BX)(R12*1), Y11; \
	FMA  Y8, Y10, Y0;     \
	FMA  Y8, Y11, Y1;     \
	BC   (DX)(R12*1), Y10; \
	BC   (SI)(R12*1), Y11; \
	FMA  Y8, Y10, Y2;     \
	FMA  Y8, Y11, Y3;     \
	ADDQ R11, R12;        \
	ADDQ R13, R10;        \
	DECQ CX;              \
	JNZ  L

// P81 runs one vector of lanes, loaded by LD0, over eight rows of C, the
// broadcast x(i0+r, p) at (AX, BX, DX, SI, R8, R9, DI, R14)+R12; row r sums
// in Y(r).
#define P81(BC, FMA, LD0, L) \
L:                        \
	LD0((R10), Y8);       \
	BC   (AX)(R12*1), Y9;  \
	BC   (BX)(R12*1), Y10; \
	BC   (DX)(R12*1), Y11; \
	BC   (SI)(R12*1), Y12; \
	FMA  Y8, Y9, Y0;      \
	FMA  Y8, Y10, Y1;     \
	FMA  Y8, Y11, Y2;     \
	FMA  Y8, Y12, Y3;     \
	BC   (R8)(R12*1), Y9;  \
	BC   (R9)(R12*1), Y10; \
	BC   (DI)(R12*1), Y11; \
	BC   (R14)(R12*1), Y12; \
	FMA  Y8, Y9, Y4;      \
	FMA  Y8, Y10, Y5;     \
	FMA  Y8, Y11, Y6;     \
	FMA  Y8, Y12, Y7;     \
	ADDQ R11, R12;        \
	ADDQ R13, R10;        \
	DECQ CX;              \
	JNZ  L

// EPIV stores one vector of four rows, their sums in A0–A3, at byte OFF of
// column j0 (CX bytes) of the rows at R8, R9, DI and R14: alpha ⊗ acc as the
// tile scales it, then storeSet or, by the mode at 32(SP), storeScale. Rows
// past m repeat the last one; every c is loaded before any is stored, so a
// repeated row stores the same value twice.
#define EPIV(LD, ST, MUL, ADD, OFF, A0, A1, A2, A3, LSET, LEND) \
	MUL  Y14, A0, A0;     \
	MUL  Y14, A1, A1;     \
	MUL  Y14, A2, A2;     \
	MUL  Y14, A3, A3;     \
	CMPQ 32(SP), $0;      \
	JEQ  LSET;            \
	LD(OFF(R8)(CX*1), Y8);   \
	LD(OFF(R9)(CX*1), Y9);   \
	LD(OFF(DI)(CX*1), Y10);  \
	LD(OFF(R14)(CX*1), Y11); \
	SCALEC(MUL, ADD, Y8, A0, Y13);  \
	SCALEC(MUL, ADD, Y9, A1, Y13);  \
	SCALEC(MUL, ADD, Y10, A2, Y13); \
	SCALEC(MUL, ADD, Y11, A3, Y13); \
	ST(Y8, OFF(R8)(CX*1));   \
	ST(Y9, OFF(R9)(CX*1));   \
	ST(Y10, OFF(DI)(CX*1));  \
	ST(Y11, OFF(R14)(CX*1)); \
	JMP  LEND;            \
LSET:                     \
	ST(A0, OFF(R8)(CX*1));   \
	ST(A1, OFF(R9)(CX*1));   \
	ST(A2, OFF(DI)(CX*1));   \
	ST(A3, OFF(R14)(CX*1));  \
LEND:

// EPIROWS loads the four C row pointers of the group and j0 in bytes for
// EPIV.
#define EPIROWS(LS) \
	MOVQ 112(SP), R8;     \
	MOVQ 120(SP), R9;     \
	MOVQ 128(SP), DI;     \
	MOVQ 136(SP), R14;    \
	MOVQ 104(SP), CX;     \
	SHLQ $LS, CX

// ROWPTR sets the pointer P to row R of a group, S bytes past PREV, row
// R−1's, while the group has more than R rows (R14 of them are left), and to
// PREV after that: rows past m repeat the last one. ROWPTRS sets rows 1–3
// from row 0's P0.
#define ROWPTR(PREV, P, S, R) \
	LEAQ (PREV)(S*1), P;  \
	CMPQ R14, $R;         \
	CMOVQLE PREV, P

#define ROWPTRS(P0, P1, P2, P3, S) \
	ROWPTR(P0, P1, S, 1); \
	ROWPTR(P1, P2, S, 2); \
	ROWPTR(P2, P3, S, 3)

// G8 is a group of eight rows whose columns fit one vector, loaded by LD
// and stored by ST: one P81 tile at j0 = 0. It runs only while more than
// four rows are left, so the rows past m, which repeat the last one, are all
// in the second half, and no half loads a c the other stored.
#define G8(BC, FMA, MUL, ADD, LD, ST, LP, S0, E0, S1, E1) \
	MOVQ 56(SP), R10;     \
	MOVQ 64(SP), AX;      \
	ROWPTRS(AX, BX, DX, SI, R10); \
	ROWPTR(SI, R8, R10, 4);  \
	ROWPTR(R8, R9, R10, 5);  \
	ROWPTR(R9, DI, R10, 6);  \
	ROWPTR(DI, R12, R10, 7); \
	MOVQ R12, R14;        \
	MOVQ 72(SP), R10;     \
	XORQ R12, R12;        \
	MOVQ 0(SP), CX;       \
	VXORPS Y0, Y0, Y0;    \
	VXORPS Y1, Y1, Y1;    \
	VXORPS Y2, Y2, Y2;    \
	VXORPS Y3, Y3, Y3;    \
	VXORPS Y4, Y4, Y4;    \
	VXORPS Y5, Y5, Y5;    \
	VXORPS Y6, Y6, Y6;    \
	VXORPS Y7, Y7, Y7;    \
	P81(BC, FMA, LD, LP); \
	MOVQ 112(SP), R8;     \
	MOVQ 120(SP), R9;     \
	MOVQ 128(SP), DI;     \
	MOVQ 136(SP), R14;    \
	EPIV(LD, ST, MUL, ADD, 0, Y0, Y1, Y2, Y3, S0, E0); \
	MOVQ 144(SP), R8;     \
	MOVQ 152(SP), R9;     \
	MOVQ 160(SP), DI;     \
	MOVQ 168(SP), R14;    \
	EPIV(LD, ST, MUL, ADD, 0, Y4, Y5, Y6, Y7, S1, E1)

// SMALL is the small path over all of C, from what SMALLARGS set up: R11 and
// R13 are the p strides of x and of the lane operand in bytes, Y14 and Y13
// alpha and beta. Locals: 0(SP) k, 8(SP) n, 16(SP) lower, 24(SP) C, 32(SP)
// the mode, 40(SP) the group's first C row, 48(SP) C's row stride and 56(SP)
// x's i stride in bytes, 64(SP) the group's first x row, 72(SP) the lane
// operand, 80(SP) the group's first row i0, 88(SP) m, 96(SP) the columns the
// group needs, 104(SP) the tile's first column j0, 112(SP)–168(SP) the
// group's C rows (four, or eight for G8). Under lowerOnly or lowerMirror
// (16(SP) = 1, 2) a group of rows i0…i0+h−1 needs only the columns up to
// i0+h−1; its tiles store whole vectors up to n all the same, so a row's
// one masked store stays at its end. Under lowerMirror the strict lower
// triangle is then mirrored into the upper one (MOV moves an element's
// bits), row i to column i, over what those vectors stored there.
#define SMALL(BC, FMA, MUL, ADD, MOV, LS, VM) \
	MOVQ $0, 80(SP);      \
group:                    \
	MOVQ 88(SP), R14;     \
	SUBQ 80(SP), R14;     \
	CMPQ R14, $4;         \
	JLE  group4;          \
	MOVQ 8(SP), R8;       \
	CMPQ 16(SP), $0;      \
	JEQ  g8lim;           \
	MOVQ 80(SP), R9;      \
	ADDQ $8, R9;          \
	CMPQ R9, R8;          \
	CMOVQLT R9, R8;       \
g8lim:                    \
	CMPQ R8, $(VM+1);     \
	JGT  group4;          \
	MOVQ 48(SP), R9;      \
	MOVQ 40(SP), R8;      \
	ROWPTRS(R8, R10, R12, CX, R9); \
	MOVQ R8, 112(SP);     \
	MOVQ R10, 120(SP);    \
	MOVQ R12, 128(SP);    \
	MOVQ CX, 136(SP);     \
	ROWPTR(CX, R8, R9, 4);   \
	ROWPTR(R8, R10, R9, 5);  \
	ROWPTR(R10, R12, R9, 6); \
	ROWPTR(R12, CX, R9, 7);  \
	MOVQ R8, 144(SP);     \
	MOVQ R10, 152(SP);    \
	MOVQ R12, 160(SP);    \
	MOVQ CX, 168(SP);     \
	MOVQ 8(SP), AX;       \
	CMPQ AX, $(VM+1);     \
	JGE  g8f;             \
	SHLQ $LS, AX;         \
	EDGE(AX, BX);         \
	G8(BC, FMA, MUL, ADD, LDM, STM, p8m, m8s0, m8e0, m8s1, m8e1); \
	JMP  g8next;          \
g8f:                      \
	G8(BC, FMA, MUL, ADD, LDF, STF, p8f, f8s0, f8e0, f8s1, f8e1); \
g8next:                   \
	MOVQ $8, R9;          \
	JMP  advance;         \
group4:                   \
	MOVQ 56(SP), R9;      \
	MOVQ 64(SP), AX;      \
	ROWPTRS(AX, BX, DX, SI, R9); \
	MOVQ 48(SP), R9;      \
	MOVQ 40(SP), R8;      \
	ROWPTRS(R8, R10, R12, CX, R9); \
	MOVQ R8, 112(SP);     \
	MOVQ R10, 120(SP);    \
	MOVQ R12, 128(SP);    \
	MOVQ CX, 136(SP);     \
	MOVQ 8(SP), R8;       \
	CMPQ 16(SP), $0;      \
	JEQ  glim;            \
	MOVQ 80(SP), R9;      \
	ADDQ $4, R9;          \
	CMPQ R9, R8;          \
	CMOVQLT R9, R8;       \
glim:                     \
	MOVQ R8, 96(SP);      \
	MOVQ $0, 104(SP);     \
tile:                     \
	MOVQ 104(SP), R9;     \
	MOVQ 96(SP), R8;      \
	SUBQ R9, R8;          \
	JLE  gnext;           \
	MOVQ 8(SP), R14;      \
	SUBQ R9, R14;         \
	SHLQ $LS, R9;         \
	MOVQ 72(SP), R10;     \
	ADDQ R9, R10;         \
	XORQ R12, R12;        \
	MOVQ 0(SP), CX;       \
	CMPQ R8, $(VM+1);     \
	JLE  one;             \
	VXORPS Y0, Y0, Y0;    \
	VXORPS Y1, Y1, Y1;    \
	VXORPS Y2, Y2, Y2;    \
	VXORPS Y3, Y3, Y3;    \
	VXORPS Y4, Y4, Y4;    \
	VXORPS Y5, Y5, Y5;    \
	VXORPS Y6, Y6, Y6;    \
	VXORPS Y7, Y7, Y7;    \
	CMPQ R14, $(2*(VM+1)); \
	JGE  ff;              \
	SUBQ $(VM+1), R14;    \
	SHLQ $LS, R14;        \
	EDGE(R14, R9);        \
	P42(BC, FMA, LDM, pfm); \
	EPIROWS(LS);          \
	EPIV(LDF, STF, MUL, ADD, 0, Y0, Y2, Y4, Y6, fm0s, fm0e);  \
	EPIV(LDM, STM, MUL, ADD, 32, Y1, Y3, Y5, Y7, fm1s, fm1e); \
	JMP  two;             \
ff:                       \
	P42(BC, FMA, LDF, pff); \
	EPIROWS(LS);          \
	EPIV(LDF, STF, MUL, ADD, 0, Y0, Y2, Y4, Y6, ff0s, ff0e);  \
	EPIV(LDF, STF, MUL, ADD, 32, Y1, Y3, Y5, Y7, ff1s, ff1e); \
two:                      \
	ADDQ $(2*(VM+1)), 104(SP); \
	JMP  tile;            \
one:                      \
	VXORPS Y0, Y0, Y0;    \
	VXORPS Y1, Y1, Y1;    \
	VXORPS Y2, Y2, Y2;    \
	VXORPS Y3, Y3, Y3;    \
	CMPQ R14, $(VM+1);    \
	JGE  f1;              \
	SHLQ $LS, R14;        \
	EDGE(R14, R9);        \
	P41(BC, FMA, LDM, pm);  \
	EPIROWS(LS);          \
	EPIV(LDM, STM, MUL, ADD, 0, Y0, Y1, Y2, Y3, m1s, m1e); \
	JMP  next1;           \
f1:                       \
	P41(BC, FMA, LDF, pf);  \
	EPIROWS(LS);          \
	EPIV(LDF, STF, MUL, ADD, 0, Y0, Y1, Y2, Y3, f1s, f1e); \
next1:                    \
	ADDQ $(VM+1), 104(SP); \
	JMP  tile;            \
gnext:                    \
	MOVQ $4, R9;          \
advance:                  \
	ADDQ R9, 80(SP);      \
	MOVQ 80(SP), R8;      \
	CMPQ R8, 88(SP);      \
	JGE  mirror;          \
	MOVQ 56(SP), R8;      \
	IMULQ R9, R8;         \
	ADDQ R8, 64(SP);      \
	MOVQ 48(SP), R8;      \
	IMULQ R9, R8;         \
	ADDQ R8, 40(SP);      \
	JMP  group;           \
mirror:                   \
	CMPQ 16(SP), $2;      \
	JNE  done;            \
	MOVQ 24(SP), SI;      \
	MOVQ SI, DX;          \
	MOVQ 48(SP), R8;      \
	MOVQ $1, R14;         \
mrow:                     \
	CMPQ R14, 88(SP);     \
	JGE  done;            \
	ADDQ R8, SI;          \
	ADDQ $(1<<LS), DX;    \
	MOVQ SI, AX;          \
	MOVQ DX, BX;          \
	MOVQ R14, CX;         \
mcol:                     \
	MOV  (AX), R10;       \
	MOV  R10, (BX);       \
	ADDQ $(1<<LS), AX;    \
	ADDQ R8, BX;          \
	DECQ CX;              \
	JNZ  mcol;            \
	INCQ R14;             \
	JMP  mrow;            \
done:                     \
	VZEROUPPER;           \
	RET

// SMALLARGS is the entry: it stages the lane operand y in scr and sets up
// what SMALL reads from the call's arguments. x(i, p) is at X + i·XI + p·XP
// and y(p, j) at Y + p·YP + j·YJ (elements).
#define SMALLARGS(X, XI, XP, Y, YP, YJ, SCR, C, LDC, M, N, K, LOWER, MODE, ALPHA, BETA, BC, LOADS, TR, STORES, LS, LV, VM, ES) \
	MOVQ Y, R8;           \
	MOVQ YP, R13;         \
	MOVQ YJ, R9;          \
	MOVQ SCR, DI;         \
	MOVQ N, R11;          \
	MOVQ K, CX;           \
	STAGE(LOADS, TR, STORES, LS, LV, VM, ES, yr, yc, yf, yb, yd); \
	SHLQ $LS, R13;        \
	MOVQ R8, 72(SP);      \
	MOVQ CX, 0(SP);       \
	MOVQ R11, 8(SP);      \
	MOVQ M, AX;           \
	MOVQ AX, 88(SP);      \
	MOVQ LOWER, AX;       \
	MOVQ AX, 16(SP);      \
	MOVQ MODE, AX;        \
	MOVQ AX, 32(SP);      \
	MOVQ C, AX;           \
	MOVQ AX, 24(SP);      \
	MOVQ AX, 40(SP);      \
	MOVQ LDC, AX;         \
	SHLQ $LS, AX;         \
	MOVQ AX, 48(SP);      \
	MOVQ XI, AX;          \
	SHLQ $LS, AX;         \
	MOVQ AX, 56(SP);      \
	MOVQ X, AX;           \
	MOVQ AX, 64(SP);      \
	MOVQ XP, R11;         \
	SHLQ $LS, R11;        \
	LEAQ ALPHA, AX;       \
	BC   (AX), Y14;       \
	LEAQ BETA, AX;        \
	BC   (AX), Y13

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

// The small path's entries, one per precision (see small.go), with SMALL's
// 176 bytes of locals.

// func ssmall(x *float32, xi, xp int, y *float32, yp, yj int, scr, c *float32, ldc, m, n, k, lower, mode int, alpha, beta float32)
TEXT ·ssmall(SB), NOSPLIT, $176-120
	SMALLARGS(x+0(FP), xi+8(FP), xp+16(FP), y+24(FP), yp+32(FP), yj+40(FP), scr+48(FP), c+56(FP), ldc+64(FP), m+72(FP), n+80(FP), k+88(FP), lower+96(FP), mode+104(FP), alpha+112(FP), beta+116(FP), VBROADCASTSS, LOADS8, TR8PS, STORES8, 2, 3, 7, 4)
	SMALL(VBROADCASTSS, VFMADD231PS, VMULPS, VADDPS, MOVL, 2, 7)

// func dsmall(x *float64, xi, xp int, y *float64, yp, yj int, scr, c *float64, ldc, m, n, k, lower, mode int, alpha, beta float64)
TEXT ·dsmall(SB), NOSPLIT, $176-128
	SMALLARGS(x+0(FP), xi+8(FP), xp+16(FP), y+24(FP), yp+32(FP), yj+40(FP), scr+48(FP), c+56(FP), ldc+64(FP), m+72(FP), n+80(FP), k+88(FP), lower+96(FP), mode+104(FP), alpha+112(FP), beta+120(FP), VBROADCASTSD, LOADS4, TR4PD, STORES4, 3, 2, 3, 8)
	SMALL(VBROADCASTSD, VFMADD231PD, VMULPD, VADDPD, MOVQ, 3, 3)

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
