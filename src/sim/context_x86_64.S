// The x86-64 stack switch behind sim::Context (context.hpp). Built from its
// own assembler file, without a .note.gnu.property: with -fcf-protection a
// binary whose objects all carry the SHSTK mark may run with a kernel shadow
// stack, which this switch does not maintain, so no object here claims it.
//
// A context that is out keeps, from its saved stack pointer up: MXCSR (4
// bytes), the x87 control word (2 bytes, padded to 4), r15, r14, r13, r12,
// rbx, rbp and the return address. Context::start lays out the same frame.
#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)

	.text

// void sim_context_switch(void** save_sp, void* to_sp): push the leaving
// context's state, store rsp in *save_sp, load to_sp and pop the arriving
// context's state from it.
	.globl	sim_context_switch
	.hidden	sim_context_switch
	.type	sim_context_switch, @function
	.p2align 4
sim_context_switch:
	.cfi_startproc
	pushq	%rbp
	.cfi_adjust_cfa_offset 8
	pushq	%rbx
	.cfi_adjust_cfa_offset 8
	pushq	%r12
	.cfi_adjust_cfa_offset 8
	pushq	%r13
	.cfi_adjust_cfa_offset 8
	pushq	%r14
	.cfi_adjust_cfa_offset 8
	pushq	%r15
	.cfi_adjust_cfa_offset 8
	subq	$8, %rsp
	.cfi_adjust_cfa_offset 8
	stmxcsr	(%rsp)
	fnstcw	4(%rsp)
	movq	%rsp, (%rdi)
	movq	%rsi, %rsp
	ldmxcsr	(%rsp)
	fldcw	4(%rsp)
	addq	$8, %rsp
	.cfi_adjust_cfa_offset -8
	popq	%r15
	.cfi_adjust_cfa_offset -8
	popq	%r14
	.cfi_adjust_cfa_offset -8
	popq	%r13
	.cfi_adjust_cfa_offset -8
	popq	%r12
	.cfi_adjust_cfa_offset -8
	popq	%rbx
	.cfi_adjust_cfa_offset -8
	popq	%rbp
	.cfi_adjust_cfa_offset -8
	ret
	.cfi_endproc
	.size	sim_context_switch, .-sim_context_switch

// The first return of a started context lands here, with rsp 16-byte
// aligned, rbx = the Context and r12 = Context::enter. The undefined return
// address ends the stack for unwinders and backtrace().
	.globl	sim_context_entry
	.hidden	sim_context_entry
	.type	sim_context_entry, @function
	.p2align 4
sim_context_entry:
	.cfi_startproc
	.cfi_undefined rip
	movq	%rbx, %rdi
	call	*%r12
	ud2
	.cfi_endproc
	.size	sim_context_entry, .-sim_context_entry

#endif

	.section .note.GNU-stack,"",%progbits
