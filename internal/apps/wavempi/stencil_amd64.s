#include "textflag.h"

// func stencilSSE2(out, u []float64, alpha float64)
//
// For each i < len(out), with p, c, n = u[i], u[i+1], u[i+2]:
//
//	t1 = c + c
//	t2 = t1 - out[i]
//	t4 = p - t1
//	t5 = t4 + n
//	t6 = t5 * alpha
//	out[i] = t6 + t2
//
// two points per iteration with unaligned packed loads, then one scalar
// point for an odd length. The destination of each ADD and MUL is the
// operand the compiler makes the destination in stencilLoop, because SSE
// returns the destination's payload when both operands are NaN.
TEXT ·stencilSSE2(SB), NOSPLIT, $0-56
	MOVQ     out_base+0(FP), DI
	MOVQ     out_len+8(FP), CX
	MOVQ     u_base+24(FP), SI
	MOVSD    alpha+48(FP), X7
	UNPCKLPD X7, X7             // alpha in both lanes
	XORQ     AX, AX             // i
	MOVQ     CX, DX
	ANDQ     $-2, DX            // the points the packed loop covers
	JZ       tail

pairs:
	MOVUPD 8(SI)(AX*8), X1  // c
	ADDPD  X1, X1           // t1
	MOVUPD (SI)(AX*8), X0   // p
	SUBPD  X1, X0           // t4 = p - t1
	MOVUPD 16(SI)(AX*8), X2 // n
	ADDPD  X2, X0           // t5 = t4 + n
	MULPD  X7, X0           // t6 = t5 * alpha
	MOVUPD (DI)(AX*8), X3   // out
	SUBPD  X3, X1           // t2 = t1 - out
	ADDPD  X1, X0           // t6 + t2
	MOVUPD X0, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, DX
	JLT    pairs

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD 8(SI)(AX*8), X1
	ADDSD X1, X1
	MOVSD (SI)(AX*8), X0
	SUBSD X1, X0
	ADDSD 16(SI)(AX*8), X0
	MULSD X7, X0
	SUBSD (DI)(AX*8), X1
	ADDSD X1, X0
	MOVSD X0, (DI)(AX*8)

done:
	RET
