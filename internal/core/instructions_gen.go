// Code generated by "go run ./cmd/vcodegen -core"; DO NOT EDIT.

package core

// This file is the VCODE per-instruction layer (the analog of the paper's
// C macro layer): one method per base-operation/type composition, named by
// the paper's convention — base name, then the type letter, then a
// trailing "i" for immediate-operand forms.  v_addii becomes Addii.

// Addi emits v_addi: rd = rs1 add rs2 (addition).
func (a *Asm) Addi(rd, rs1, rs2 Reg) { a.ALU(OpAdd, TypeI, rd, rs1, rs2) }

// Addii emits v_addii: rd = rs add imm.
func (a *Asm) Addii(rd, rs Reg, imm int64) { a.ALUI(OpAdd, TypeI, rd, rs, imm) }

// Addu emits v_addu: rd = rs1 add rs2 (addition).
func (a *Asm) Addu(rd, rs1, rs2 Reg) { a.ALU(OpAdd, TypeU, rd, rs1, rs2) }

// Addui emits v_addui: rd = rs add imm.
func (a *Asm) Addui(rd, rs Reg, imm int64) { a.ALUI(OpAdd, TypeU, rd, rs, imm) }

// Addl emits v_addl: rd = rs1 add rs2 (addition).
func (a *Asm) Addl(rd, rs1, rs2 Reg) { a.ALU(OpAdd, TypeL, rd, rs1, rs2) }

// Addli emits v_addli: rd = rs add imm.
func (a *Asm) Addli(rd, rs Reg, imm int64) { a.ALUI(OpAdd, TypeL, rd, rs, imm) }

// Addul emits v_addul: rd = rs1 add rs2 (addition).
func (a *Asm) Addul(rd, rs1, rs2 Reg) { a.ALU(OpAdd, TypeUL, rd, rs1, rs2) }

// Adduli emits v_adduli: rd = rs add imm.
func (a *Asm) Adduli(rd, rs Reg, imm int64) { a.ALUI(OpAdd, TypeUL, rd, rs, imm) }

// Addp emits v_addp: rd = rs1 add rs2 (addition).
func (a *Asm) Addp(rd, rs1, rs2 Reg) { a.ALU(OpAdd, TypeP, rd, rs1, rs2) }

// Addpi emits v_addpi: rd = rs add imm.
func (a *Asm) Addpi(rd, rs Reg, imm int64) { a.ALUI(OpAdd, TypeP, rd, rs, imm) }

// Addf emits v_addf: rd = rs1 add rs2 (addition).
func (a *Asm) Addf(rd, rs1, rs2 Reg) { a.ALU(OpAdd, TypeF, rd, rs1, rs2) }

// Addd emits v_addd: rd = rs1 add rs2 (addition).
func (a *Asm) Addd(rd, rs1, rs2 Reg) { a.ALU(OpAdd, TypeD, rd, rs1, rs2) }

// Subi emits v_subi: rd = rs1 sub rs2 (subtraction).
func (a *Asm) Subi(rd, rs1, rs2 Reg) { a.ALU(OpSub, TypeI, rd, rs1, rs2) }

// Subii emits v_subii: rd = rs sub imm.
func (a *Asm) Subii(rd, rs Reg, imm int64) { a.ALUI(OpSub, TypeI, rd, rs, imm) }

// Subu emits v_subu: rd = rs1 sub rs2 (subtraction).
func (a *Asm) Subu(rd, rs1, rs2 Reg) { a.ALU(OpSub, TypeU, rd, rs1, rs2) }

// Subui emits v_subui: rd = rs sub imm.
func (a *Asm) Subui(rd, rs Reg, imm int64) { a.ALUI(OpSub, TypeU, rd, rs, imm) }

// Subl emits v_subl: rd = rs1 sub rs2 (subtraction).
func (a *Asm) Subl(rd, rs1, rs2 Reg) { a.ALU(OpSub, TypeL, rd, rs1, rs2) }

// Subli emits v_subli: rd = rs sub imm.
func (a *Asm) Subli(rd, rs Reg, imm int64) { a.ALUI(OpSub, TypeL, rd, rs, imm) }

// Subul emits v_subul: rd = rs1 sub rs2 (subtraction).
func (a *Asm) Subul(rd, rs1, rs2 Reg) { a.ALU(OpSub, TypeUL, rd, rs1, rs2) }

// Subuli emits v_subuli: rd = rs sub imm.
func (a *Asm) Subuli(rd, rs Reg, imm int64) { a.ALUI(OpSub, TypeUL, rd, rs, imm) }

// Subp emits v_subp: rd = rs1 sub rs2 (subtraction).
func (a *Asm) Subp(rd, rs1, rs2 Reg) { a.ALU(OpSub, TypeP, rd, rs1, rs2) }

// Subpi emits v_subpi: rd = rs sub imm.
func (a *Asm) Subpi(rd, rs Reg, imm int64) { a.ALUI(OpSub, TypeP, rd, rs, imm) }

// Subf emits v_subf: rd = rs1 sub rs2 (subtraction).
func (a *Asm) Subf(rd, rs1, rs2 Reg) { a.ALU(OpSub, TypeF, rd, rs1, rs2) }

// Subd emits v_subd: rd = rs1 sub rs2 (subtraction).
func (a *Asm) Subd(rd, rs1, rs2 Reg) { a.ALU(OpSub, TypeD, rd, rs1, rs2) }

// Muli emits v_muli: rd = rs1 mul rs2 (multiplication).
func (a *Asm) Muli(rd, rs1, rs2 Reg) { a.ALU(OpMul, TypeI, rd, rs1, rs2) }

// Mulii emits v_mulii: rd = rs mul imm.
func (a *Asm) Mulii(rd, rs Reg, imm int64) { a.ALUI(OpMul, TypeI, rd, rs, imm) }

// Mulu emits v_mulu: rd = rs1 mul rs2 (multiplication).
func (a *Asm) Mulu(rd, rs1, rs2 Reg) { a.ALU(OpMul, TypeU, rd, rs1, rs2) }

// Mului emits v_mului: rd = rs mul imm.
func (a *Asm) Mului(rd, rs Reg, imm int64) { a.ALUI(OpMul, TypeU, rd, rs, imm) }

// Mull emits v_mull: rd = rs1 mul rs2 (multiplication).
func (a *Asm) Mull(rd, rs1, rs2 Reg) { a.ALU(OpMul, TypeL, rd, rs1, rs2) }

// Mulli emits v_mulli: rd = rs mul imm.
func (a *Asm) Mulli(rd, rs Reg, imm int64) { a.ALUI(OpMul, TypeL, rd, rs, imm) }

// Mulul emits v_mulul: rd = rs1 mul rs2 (multiplication).
func (a *Asm) Mulul(rd, rs1, rs2 Reg) { a.ALU(OpMul, TypeUL, rd, rs1, rs2) }

// Mululi emits v_mululi: rd = rs mul imm.
func (a *Asm) Mululi(rd, rs Reg, imm int64) { a.ALUI(OpMul, TypeUL, rd, rs, imm) }

// Mulp emits v_mulp: rd = rs1 mul rs2 (multiplication).
func (a *Asm) Mulp(rd, rs1, rs2 Reg) { a.ALU(OpMul, TypeP, rd, rs1, rs2) }

// Mulpi emits v_mulpi: rd = rs mul imm.
func (a *Asm) Mulpi(rd, rs Reg, imm int64) { a.ALUI(OpMul, TypeP, rd, rs, imm) }

// Mulf emits v_mulf: rd = rs1 mul rs2 (multiplication).
func (a *Asm) Mulf(rd, rs1, rs2 Reg) { a.ALU(OpMul, TypeF, rd, rs1, rs2) }

// Muld emits v_muld: rd = rs1 mul rs2 (multiplication).
func (a *Asm) Muld(rd, rs1, rs2 Reg) { a.ALU(OpMul, TypeD, rd, rs1, rs2) }

// Divi emits v_divi: rd = rs1 div rs2 (division).
func (a *Asm) Divi(rd, rs1, rs2 Reg) { a.ALU(OpDiv, TypeI, rd, rs1, rs2) }

// Divii emits v_divii: rd = rs div imm.
func (a *Asm) Divii(rd, rs Reg, imm int64) { a.ALUI(OpDiv, TypeI, rd, rs, imm) }

// Divu emits v_divu: rd = rs1 div rs2 (division).
func (a *Asm) Divu(rd, rs1, rs2 Reg) { a.ALU(OpDiv, TypeU, rd, rs1, rs2) }

// Divui emits v_divui: rd = rs div imm.
func (a *Asm) Divui(rd, rs Reg, imm int64) { a.ALUI(OpDiv, TypeU, rd, rs, imm) }

// Divl emits v_divl: rd = rs1 div rs2 (division).
func (a *Asm) Divl(rd, rs1, rs2 Reg) { a.ALU(OpDiv, TypeL, rd, rs1, rs2) }

// Divli emits v_divli: rd = rs div imm.
func (a *Asm) Divli(rd, rs Reg, imm int64) { a.ALUI(OpDiv, TypeL, rd, rs, imm) }

// Divul emits v_divul: rd = rs1 div rs2 (division).
func (a *Asm) Divul(rd, rs1, rs2 Reg) { a.ALU(OpDiv, TypeUL, rd, rs1, rs2) }

// Divuli emits v_divuli: rd = rs div imm.
func (a *Asm) Divuli(rd, rs Reg, imm int64) { a.ALUI(OpDiv, TypeUL, rd, rs, imm) }

// Divp emits v_divp: rd = rs1 div rs2 (division).
func (a *Asm) Divp(rd, rs1, rs2 Reg) { a.ALU(OpDiv, TypeP, rd, rs1, rs2) }

// Divpi emits v_divpi: rd = rs div imm.
func (a *Asm) Divpi(rd, rs Reg, imm int64) { a.ALUI(OpDiv, TypeP, rd, rs, imm) }

// Divf emits v_divf: rd = rs1 div rs2 (division).
func (a *Asm) Divf(rd, rs1, rs2 Reg) { a.ALU(OpDiv, TypeF, rd, rs1, rs2) }

// Divd emits v_divd: rd = rs1 div rs2 (division).
func (a *Asm) Divd(rd, rs1, rs2 Reg) { a.ALU(OpDiv, TypeD, rd, rs1, rs2) }

// Modi emits v_modi: rd = rs1 mod rs2 (modulus).
func (a *Asm) Modi(rd, rs1, rs2 Reg) { a.ALU(OpMod, TypeI, rd, rs1, rs2) }

// Modii emits v_modii: rd = rs mod imm.
func (a *Asm) Modii(rd, rs Reg, imm int64) { a.ALUI(OpMod, TypeI, rd, rs, imm) }

// Modu emits v_modu: rd = rs1 mod rs2 (modulus).
func (a *Asm) Modu(rd, rs1, rs2 Reg) { a.ALU(OpMod, TypeU, rd, rs1, rs2) }

// Modui emits v_modui: rd = rs mod imm.
func (a *Asm) Modui(rd, rs Reg, imm int64) { a.ALUI(OpMod, TypeU, rd, rs, imm) }

// Modl emits v_modl: rd = rs1 mod rs2 (modulus).
func (a *Asm) Modl(rd, rs1, rs2 Reg) { a.ALU(OpMod, TypeL, rd, rs1, rs2) }

// Modli emits v_modli: rd = rs mod imm.
func (a *Asm) Modli(rd, rs Reg, imm int64) { a.ALUI(OpMod, TypeL, rd, rs, imm) }

// Modul emits v_modul: rd = rs1 mod rs2 (modulus).
func (a *Asm) Modul(rd, rs1, rs2 Reg) { a.ALU(OpMod, TypeUL, rd, rs1, rs2) }

// Moduli emits v_moduli: rd = rs mod imm.
func (a *Asm) Moduli(rd, rs Reg, imm int64) { a.ALUI(OpMod, TypeUL, rd, rs, imm) }

// Modp emits v_modp: rd = rs1 mod rs2 (modulus).
func (a *Asm) Modp(rd, rs1, rs2 Reg) { a.ALU(OpMod, TypeP, rd, rs1, rs2) }

// Modpi emits v_modpi: rd = rs mod imm.
func (a *Asm) Modpi(rd, rs Reg, imm int64) { a.ALUI(OpMod, TypeP, rd, rs, imm) }

// Andi emits v_andi: rd = rs1 and rs2 (logical and).
func (a *Asm) Andi(rd, rs1, rs2 Reg) { a.ALU(OpAnd, TypeI, rd, rs1, rs2) }

// Andii emits v_andii: rd = rs and imm.
func (a *Asm) Andii(rd, rs Reg, imm int64) { a.ALUI(OpAnd, TypeI, rd, rs, imm) }

// Andu emits v_andu: rd = rs1 and rs2 (logical and).
func (a *Asm) Andu(rd, rs1, rs2 Reg) { a.ALU(OpAnd, TypeU, rd, rs1, rs2) }

// Andui emits v_andui: rd = rs and imm.
func (a *Asm) Andui(rd, rs Reg, imm int64) { a.ALUI(OpAnd, TypeU, rd, rs, imm) }

// Andl emits v_andl: rd = rs1 and rs2 (logical and).
func (a *Asm) Andl(rd, rs1, rs2 Reg) { a.ALU(OpAnd, TypeL, rd, rs1, rs2) }

// Andli emits v_andli: rd = rs and imm.
func (a *Asm) Andli(rd, rs Reg, imm int64) { a.ALUI(OpAnd, TypeL, rd, rs, imm) }

// Andul emits v_andul: rd = rs1 and rs2 (logical and).
func (a *Asm) Andul(rd, rs1, rs2 Reg) { a.ALU(OpAnd, TypeUL, rd, rs1, rs2) }

// Anduli emits v_anduli: rd = rs and imm.
func (a *Asm) Anduli(rd, rs Reg, imm int64) { a.ALUI(OpAnd, TypeUL, rd, rs, imm) }

// Ori emits v_ori: rd = rs1 or rs2 (logical or).
func (a *Asm) Ori(rd, rs1, rs2 Reg) { a.ALU(OpOr, TypeI, rd, rs1, rs2) }

// Orii emits v_orii: rd = rs or imm.
func (a *Asm) Orii(rd, rs Reg, imm int64) { a.ALUI(OpOr, TypeI, rd, rs, imm) }

// Oru emits v_oru: rd = rs1 or rs2 (logical or).
func (a *Asm) Oru(rd, rs1, rs2 Reg) { a.ALU(OpOr, TypeU, rd, rs1, rs2) }

// Orui emits v_orui: rd = rs or imm.
func (a *Asm) Orui(rd, rs Reg, imm int64) { a.ALUI(OpOr, TypeU, rd, rs, imm) }

// Orl emits v_orl: rd = rs1 or rs2 (logical or).
func (a *Asm) Orl(rd, rs1, rs2 Reg) { a.ALU(OpOr, TypeL, rd, rs1, rs2) }

// Orli emits v_orli: rd = rs or imm.
func (a *Asm) Orli(rd, rs Reg, imm int64) { a.ALUI(OpOr, TypeL, rd, rs, imm) }

// Orul emits v_orul: rd = rs1 or rs2 (logical or).
func (a *Asm) Orul(rd, rs1, rs2 Reg) { a.ALU(OpOr, TypeUL, rd, rs1, rs2) }

// Oruli emits v_oruli: rd = rs or imm.
func (a *Asm) Oruli(rd, rs Reg, imm int64) { a.ALUI(OpOr, TypeUL, rd, rs, imm) }

// Xori emits v_xori: rd = rs1 xor rs2 (logical xor).
func (a *Asm) Xori(rd, rs1, rs2 Reg) { a.ALU(OpXor, TypeI, rd, rs1, rs2) }

// Xorii emits v_xorii: rd = rs xor imm.
func (a *Asm) Xorii(rd, rs Reg, imm int64) { a.ALUI(OpXor, TypeI, rd, rs, imm) }

// Xoru emits v_xoru: rd = rs1 xor rs2 (logical xor).
func (a *Asm) Xoru(rd, rs1, rs2 Reg) { a.ALU(OpXor, TypeU, rd, rs1, rs2) }

// Xorui emits v_xorui: rd = rs xor imm.
func (a *Asm) Xorui(rd, rs Reg, imm int64) { a.ALUI(OpXor, TypeU, rd, rs, imm) }

// Xorl emits v_xorl: rd = rs1 xor rs2 (logical xor).
func (a *Asm) Xorl(rd, rs1, rs2 Reg) { a.ALU(OpXor, TypeL, rd, rs1, rs2) }

// Xorli emits v_xorli: rd = rs xor imm.
func (a *Asm) Xorli(rd, rs Reg, imm int64) { a.ALUI(OpXor, TypeL, rd, rs, imm) }

// Xorul emits v_xorul: rd = rs1 xor rs2 (logical xor).
func (a *Asm) Xorul(rd, rs1, rs2 Reg) { a.ALU(OpXor, TypeUL, rd, rs1, rs2) }

// Xoruli emits v_xoruli: rd = rs xor imm.
func (a *Asm) Xoruli(rd, rs Reg, imm int64) { a.ALUI(OpXor, TypeUL, rd, rs, imm) }

// Lshi emits v_lshi: rd = rs1 lsh rs2 (left shift).
func (a *Asm) Lshi(rd, rs1, rs2 Reg) { a.ALU(OpLsh, TypeI, rd, rs1, rs2) }

// Lshii emits v_lshii: rd = rs lsh imm.
func (a *Asm) Lshii(rd, rs Reg, imm int64) { a.ALUI(OpLsh, TypeI, rd, rs, imm) }

// Lshu emits v_lshu: rd = rs1 lsh rs2 (left shift).
func (a *Asm) Lshu(rd, rs1, rs2 Reg) { a.ALU(OpLsh, TypeU, rd, rs1, rs2) }

// Lshui emits v_lshui: rd = rs lsh imm.
func (a *Asm) Lshui(rd, rs Reg, imm int64) { a.ALUI(OpLsh, TypeU, rd, rs, imm) }

// Lshl emits v_lshl: rd = rs1 lsh rs2 (left shift).
func (a *Asm) Lshl(rd, rs1, rs2 Reg) { a.ALU(OpLsh, TypeL, rd, rs1, rs2) }

// Lshli emits v_lshli: rd = rs lsh imm.
func (a *Asm) Lshli(rd, rs Reg, imm int64) { a.ALUI(OpLsh, TypeL, rd, rs, imm) }

// Lshul emits v_lshul: rd = rs1 lsh rs2 (left shift).
func (a *Asm) Lshul(rd, rs1, rs2 Reg) { a.ALU(OpLsh, TypeUL, rd, rs1, rs2) }

// Lshuli emits v_lshuli: rd = rs lsh imm.
func (a *Asm) Lshuli(rd, rs Reg, imm int64) { a.ALUI(OpLsh, TypeUL, rd, rs, imm) }

// Rshi emits v_rshi: rd = rs1 rsh rs2 (right shift (sign-propagating for signed types)).
func (a *Asm) Rshi(rd, rs1, rs2 Reg) { a.ALU(OpRsh, TypeI, rd, rs1, rs2) }

// Rshii emits v_rshii: rd = rs rsh imm.
func (a *Asm) Rshii(rd, rs Reg, imm int64) { a.ALUI(OpRsh, TypeI, rd, rs, imm) }

// Rshu emits v_rshu: rd = rs1 rsh rs2 (right shift (sign-propagating for signed types)).
func (a *Asm) Rshu(rd, rs1, rs2 Reg) { a.ALU(OpRsh, TypeU, rd, rs1, rs2) }

// Rshui emits v_rshui: rd = rs rsh imm.
func (a *Asm) Rshui(rd, rs Reg, imm int64) { a.ALUI(OpRsh, TypeU, rd, rs, imm) }

// Rshl emits v_rshl: rd = rs1 rsh rs2 (right shift (sign-propagating for signed types)).
func (a *Asm) Rshl(rd, rs1, rs2 Reg) { a.ALU(OpRsh, TypeL, rd, rs1, rs2) }

// Rshli emits v_rshli: rd = rs rsh imm.
func (a *Asm) Rshli(rd, rs Reg, imm int64) { a.ALUI(OpRsh, TypeL, rd, rs, imm) }

// Rshul emits v_rshul: rd = rs1 rsh rs2 (right shift (sign-propagating for signed types)).
func (a *Asm) Rshul(rd, rs1, rs2 Reg) { a.ALU(OpRsh, TypeUL, rd, rs1, rs2) }

// Rshuli emits v_rshuli: rd = rs rsh imm.
func (a *Asm) Rshuli(rd, rs Reg, imm int64) { a.ALUI(OpRsh, TypeUL, rd, rs, imm) }

// Comi emits v_comi: rd = com rs (bit complement).
func (a *Asm) Comi(rd, rs Reg) { a.Unary(OpCom, TypeI, rd, rs) }

// Comu emits v_comu: rd = com rs (bit complement).
func (a *Asm) Comu(rd, rs Reg) { a.Unary(OpCom, TypeU, rd, rs) }

// Coml emits v_coml: rd = com rs (bit complement).
func (a *Asm) Coml(rd, rs Reg) { a.Unary(OpCom, TypeL, rd, rs) }

// Comul emits v_comul: rd = com rs (bit complement).
func (a *Asm) Comul(rd, rs Reg) { a.Unary(OpCom, TypeUL, rd, rs) }

// Noti emits v_noti: rd = not rs (logical not).
func (a *Asm) Noti(rd, rs Reg) { a.Unary(OpNot, TypeI, rd, rs) }

// Notu emits v_notu: rd = not rs (logical not).
func (a *Asm) Notu(rd, rs Reg) { a.Unary(OpNot, TypeU, rd, rs) }

// Notl emits v_notl: rd = not rs (logical not).
func (a *Asm) Notl(rd, rs Reg) { a.Unary(OpNot, TypeL, rd, rs) }

// Notul emits v_notul: rd = not rs (logical not).
func (a *Asm) Notul(rd, rs Reg) { a.Unary(OpNot, TypeUL, rd, rs) }

// Movi emits v_movi: rd = mov rs (register copy).
func (a *Asm) Movi(rd, rs Reg) { a.Unary(OpMov, TypeI, rd, rs) }

// Movu emits v_movu: rd = mov rs (register copy).
func (a *Asm) Movu(rd, rs Reg) { a.Unary(OpMov, TypeU, rd, rs) }

// Movl emits v_movl: rd = mov rs (register copy).
func (a *Asm) Movl(rd, rs Reg) { a.Unary(OpMov, TypeL, rd, rs) }

// Movul emits v_movul: rd = mov rs (register copy).
func (a *Asm) Movul(rd, rs Reg) { a.Unary(OpMov, TypeUL, rd, rs) }

// Movp emits v_movp: rd = mov rs (register copy).
func (a *Asm) Movp(rd, rs Reg) { a.Unary(OpMov, TypeP, rd, rs) }

// Movf emits v_movf: rd = mov rs (register copy).
func (a *Asm) Movf(rd, rs Reg) { a.Unary(OpMov, TypeF, rd, rs) }

// Movd emits v_movd: rd = mov rs (register copy).
func (a *Asm) Movd(rd, rs Reg) { a.Unary(OpMov, TypeD, rd, rs) }

// Negi emits v_negi: rd = neg rs (negation).
func (a *Asm) Negi(rd, rs Reg) { a.Unary(OpNeg, TypeI, rd, rs) }

// Negl emits v_negl: rd = neg rs (negation).
func (a *Asm) Negl(rd, rs Reg) { a.Unary(OpNeg, TypeL, rd, rs) }

// Negf emits v_negf: rd = neg rs (negation).
func (a *Asm) Negf(rd, rs Reg) { a.Unary(OpNeg, TypeF, rd, rs) }

// Negd emits v_negd: rd = neg rs (negation).
func (a *Asm) Negd(rd, rs Reg) { a.Unary(OpNeg, TypeD, rd, rs) }

// Seti emits v_seti: rd = imm.
func (a *Asm) Seti(rd Reg, imm int64) { a.SetI(TypeI, rd, imm) }

// Setu emits v_setu: rd = imm.
func (a *Asm) Setu(rd Reg, imm int64) { a.SetI(TypeU, rd, imm) }

// Setl emits v_setl: rd = imm.
func (a *Asm) Setl(rd Reg, imm int64) { a.SetI(TypeL, rd, imm) }

// Setul emits v_setul: rd = imm.
func (a *Asm) Setul(rd Reg, imm int64) { a.SetI(TypeUL, rd, imm) }

// Setp emits v_setp: rd = imm.
func (a *Asm) Setp(rd Reg, imm int64) { a.SetI(TypeP, rd, imm) }

// Setf emits v_setf: rd = imm (float, via the constant pool).
func (a *Asm) Setf(rd Reg, imm float32) { a.SetF(rd, imm) }

// Setd emits v_setd: rd = imm (double, via the constant pool).
func (a *Asm) Setd(rd Reg, imm float64) { a.SetD(rd, imm) }

// Ldc emits v_ldc: rd = *(TypeC*)(rs + roff).
func (a *Asm) Ldc(rd, rs, roff Reg) { a.Ld(TypeC, rd, rs, roff) }

// Ldci emits v_ldci: rd = *(TypeC*)(rs + off).
func (a *Asm) Ldci(rd, rs Reg, off int64) { a.LdI(TypeC, rd, rs, off) }

// Lduc emits v_lduc: rd = *(TypeUC*)(rs + roff).
func (a *Asm) Lduc(rd, rs, roff Reg) { a.Ld(TypeUC, rd, rs, roff) }

// Lduci emits v_lduci: rd = *(TypeUC*)(rs + off).
func (a *Asm) Lduci(rd, rs Reg, off int64) { a.LdI(TypeUC, rd, rs, off) }

// Lds emits v_lds: rd = *(TypeS*)(rs + roff).
func (a *Asm) Lds(rd, rs, roff Reg) { a.Ld(TypeS, rd, rs, roff) }

// Ldsi emits v_ldsi: rd = *(TypeS*)(rs + off).
func (a *Asm) Ldsi(rd, rs Reg, off int64) { a.LdI(TypeS, rd, rs, off) }

// Ldus emits v_ldus: rd = *(TypeUS*)(rs + roff).
func (a *Asm) Ldus(rd, rs, roff Reg) { a.Ld(TypeUS, rd, rs, roff) }

// Ldusi emits v_ldusi: rd = *(TypeUS*)(rs + off).
func (a *Asm) Ldusi(rd, rs Reg, off int64) { a.LdI(TypeUS, rd, rs, off) }

// Ldi emits v_ldi: rd = *(TypeI*)(rs + roff).
func (a *Asm) Ldi(rd, rs, roff Reg) { a.Ld(TypeI, rd, rs, roff) }

// Ldii emits v_ldii: rd = *(TypeI*)(rs + off).
func (a *Asm) Ldii(rd, rs Reg, off int64) { a.LdI(TypeI, rd, rs, off) }

// Ldu emits v_ldu: rd = *(TypeU*)(rs + roff).
func (a *Asm) Ldu(rd, rs, roff Reg) { a.Ld(TypeU, rd, rs, roff) }

// Ldui emits v_ldui: rd = *(TypeU*)(rs + off).
func (a *Asm) Ldui(rd, rs Reg, off int64) { a.LdI(TypeU, rd, rs, off) }

// Ldl emits v_ldl: rd = *(TypeL*)(rs + roff).
func (a *Asm) Ldl(rd, rs, roff Reg) { a.Ld(TypeL, rd, rs, roff) }

// Ldli emits v_ldli: rd = *(TypeL*)(rs + off).
func (a *Asm) Ldli(rd, rs Reg, off int64) { a.LdI(TypeL, rd, rs, off) }

// Ldul emits v_ldul: rd = *(TypeUL*)(rs + roff).
func (a *Asm) Ldul(rd, rs, roff Reg) { a.Ld(TypeUL, rd, rs, roff) }

// Lduli emits v_lduli: rd = *(TypeUL*)(rs + off).
func (a *Asm) Lduli(rd, rs Reg, off int64) { a.LdI(TypeUL, rd, rs, off) }

// Ldp emits v_ldp: rd = *(TypeP*)(rs + roff).
func (a *Asm) Ldp(rd, rs, roff Reg) { a.Ld(TypeP, rd, rs, roff) }

// Ldpi emits v_ldpi: rd = *(TypeP*)(rs + off).
func (a *Asm) Ldpi(rd, rs Reg, off int64) { a.LdI(TypeP, rd, rs, off) }

// Ldf emits v_ldf: rd = *(TypeF*)(rs + roff).
func (a *Asm) Ldf(rd, rs, roff Reg) { a.Ld(TypeF, rd, rs, roff) }

// Ldfi emits v_ldfi: rd = *(TypeF*)(rs + off).
func (a *Asm) Ldfi(rd, rs Reg, off int64) { a.LdI(TypeF, rd, rs, off) }

// Ldd emits v_ldd: rd = *(TypeD*)(rs + roff).
func (a *Asm) Ldd(rd, rs, roff Reg) { a.Ld(TypeD, rd, rs, roff) }

// Lddi emits v_lddi: rd = *(TypeD*)(rs + off).
func (a *Asm) Lddi(rd, rs Reg, off int64) { a.LdI(TypeD, rd, rs, off) }

// Stc emits v_stc: *(TypeC*)(rb + roff) = rs.
func (a *Asm) Stc(rs, rb, roff Reg) { a.St(TypeC, rs, rb, roff) }

// Stci emits v_stci: *(TypeC*)(rb + off) = rs.
func (a *Asm) Stci(rs, rb Reg, off int64) { a.StI(TypeC, rs, rb, off) }

// Stuc emits v_stuc: *(TypeUC*)(rb + roff) = rs.
func (a *Asm) Stuc(rs, rb, roff Reg) { a.St(TypeUC, rs, rb, roff) }

// Stuci emits v_stuci: *(TypeUC*)(rb + off) = rs.
func (a *Asm) Stuci(rs, rb Reg, off int64) { a.StI(TypeUC, rs, rb, off) }

// Sts emits v_sts: *(TypeS*)(rb + roff) = rs.
func (a *Asm) Sts(rs, rb, roff Reg) { a.St(TypeS, rs, rb, roff) }

// Stsi emits v_stsi: *(TypeS*)(rb + off) = rs.
func (a *Asm) Stsi(rs, rb Reg, off int64) { a.StI(TypeS, rs, rb, off) }

// Stus emits v_stus: *(TypeUS*)(rb + roff) = rs.
func (a *Asm) Stus(rs, rb, roff Reg) { a.St(TypeUS, rs, rb, roff) }

// Stusi emits v_stusi: *(TypeUS*)(rb + off) = rs.
func (a *Asm) Stusi(rs, rb Reg, off int64) { a.StI(TypeUS, rs, rb, off) }

// Sti emits v_sti: *(TypeI*)(rb + roff) = rs.
func (a *Asm) Sti(rs, rb, roff Reg) { a.St(TypeI, rs, rb, roff) }

// Stii emits v_stii: *(TypeI*)(rb + off) = rs.
func (a *Asm) Stii(rs, rb Reg, off int64) { a.StI(TypeI, rs, rb, off) }

// Stu emits v_stu: *(TypeU*)(rb + roff) = rs.
func (a *Asm) Stu(rs, rb, roff Reg) { a.St(TypeU, rs, rb, roff) }

// Stui emits v_stui: *(TypeU*)(rb + off) = rs.
func (a *Asm) Stui(rs, rb Reg, off int64) { a.StI(TypeU, rs, rb, off) }

// Stl emits v_stl: *(TypeL*)(rb + roff) = rs.
func (a *Asm) Stl(rs, rb, roff Reg) { a.St(TypeL, rs, rb, roff) }

// Stli emits v_stli: *(TypeL*)(rb + off) = rs.
func (a *Asm) Stli(rs, rb Reg, off int64) { a.StI(TypeL, rs, rb, off) }

// Stul emits v_stul: *(TypeUL*)(rb + roff) = rs.
func (a *Asm) Stul(rs, rb, roff Reg) { a.St(TypeUL, rs, rb, roff) }

// Stuli emits v_stuli: *(TypeUL*)(rb + off) = rs.
func (a *Asm) Stuli(rs, rb Reg, off int64) { a.StI(TypeUL, rs, rb, off) }

// Stp emits v_stp: *(TypeP*)(rb + roff) = rs.
func (a *Asm) Stp(rs, rb, roff Reg) { a.St(TypeP, rs, rb, roff) }

// Stpi emits v_stpi: *(TypeP*)(rb + off) = rs.
func (a *Asm) Stpi(rs, rb Reg, off int64) { a.StI(TypeP, rs, rb, off) }

// Stf emits v_stf: *(TypeF*)(rb + roff) = rs.
func (a *Asm) Stf(rs, rb, roff Reg) { a.St(TypeF, rs, rb, roff) }

// Stfi emits v_stfi: *(TypeF*)(rb + off) = rs.
func (a *Asm) Stfi(rs, rb Reg, off int64) { a.StI(TypeF, rs, rb, off) }

// Std emits v_std: *(TypeD*)(rb + roff) = rs.
func (a *Asm) Std(rs, rb, roff Reg) { a.St(TypeD, rs, rb, roff) }

// Stdi emits v_stdi: *(TypeD*)(rb + off) = rs.
func (a *Asm) Stdi(rs, rb Reg, off int64) { a.StI(TypeD, rs, rb, off) }

// Reti emits v_reti: return rs (TypeI).
func (a *Asm) Reti(rs Reg) { a.Ret(TypeI, rs) }

// Retu emits v_retu: return rs (TypeU).
func (a *Asm) Retu(rs Reg) { a.Ret(TypeU, rs) }

// Retl emits v_retl: return rs (TypeL).
func (a *Asm) Retl(rs Reg) { a.Ret(TypeL, rs) }

// Retul emits v_retul: return rs (TypeUL).
func (a *Asm) Retul(rs Reg) { a.Ret(TypeUL, rs) }

// Retp emits v_retp: return rs (TypeP).
func (a *Asm) Retp(rs Reg) { a.Ret(TypeP, rs) }

// Retf emits v_retf: return rs (TypeF).
func (a *Asm) Retf(rs Reg) { a.Ret(TypeF, rs) }

// Retd emits v_retd: return rs (TypeD).
func (a *Asm) Retd(rs Reg) { a.Ret(TypeD, rs) }

// Blti emits v_blti: branch if less than, comparing rs1 and rs2.
func (a *Asm) Blti(rs1, rs2 Reg, l Label) { a.Br(OpBlt, TypeI, rs1, rs2, l) }

// Bltii emits v_bltii: branch if less than, comparing rs and imm.
func (a *Asm) Bltii(rs Reg, imm int64, l Label) { a.BrI(OpBlt, TypeI, rs, imm, l) }

// Bltu emits v_bltu: branch if less than, comparing rs1 and rs2.
func (a *Asm) Bltu(rs1, rs2 Reg, l Label) { a.Br(OpBlt, TypeU, rs1, rs2, l) }

// Bltui emits v_bltui: branch if less than, comparing rs and imm.
func (a *Asm) Bltui(rs Reg, imm int64, l Label) { a.BrI(OpBlt, TypeU, rs, imm, l) }

// Bltl emits v_bltl: branch if less than, comparing rs1 and rs2.
func (a *Asm) Bltl(rs1, rs2 Reg, l Label) { a.Br(OpBlt, TypeL, rs1, rs2, l) }

// Bltli emits v_bltli: branch if less than, comparing rs and imm.
func (a *Asm) Bltli(rs Reg, imm int64, l Label) { a.BrI(OpBlt, TypeL, rs, imm, l) }

// Bltul emits v_bltul: branch if less than, comparing rs1 and rs2.
func (a *Asm) Bltul(rs1, rs2 Reg, l Label) { a.Br(OpBlt, TypeUL, rs1, rs2, l) }

// Bltuli emits v_bltuli: branch if less than, comparing rs and imm.
func (a *Asm) Bltuli(rs Reg, imm int64, l Label) { a.BrI(OpBlt, TypeUL, rs, imm, l) }

// Bltp emits v_bltp: branch if less than, comparing rs1 and rs2.
func (a *Asm) Bltp(rs1, rs2 Reg, l Label) { a.Br(OpBlt, TypeP, rs1, rs2, l) }

// Bltpi emits v_bltpi: branch if less than, comparing rs and imm.
func (a *Asm) Bltpi(rs Reg, imm int64, l Label) { a.BrI(OpBlt, TypeP, rs, imm, l) }

// Bltf emits v_bltf: branch if less than, comparing rs1 and rs2.
func (a *Asm) Bltf(rs1, rs2 Reg, l Label) { a.Br(OpBlt, TypeF, rs1, rs2, l) }

// Bltd emits v_bltd: branch if less than, comparing rs1 and rs2.
func (a *Asm) Bltd(rs1, rs2 Reg, l Label) { a.Br(OpBlt, TypeD, rs1, rs2, l) }

// Blei emits v_blei: branch if less than or equal, comparing rs1 and rs2.
func (a *Asm) Blei(rs1, rs2 Reg, l Label) { a.Br(OpBle, TypeI, rs1, rs2, l) }

// Bleii emits v_bleii: branch if less than or equal, comparing rs and imm.
func (a *Asm) Bleii(rs Reg, imm int64, l Label) { a.BrI(OpBle, TypeI, rs, imm, l) }

// Bleu emits v_bleu: branch if less than or equal, comparing rs1 and rs2.
func (a *Asm) Bleu(rs1, rs2 Reg, l Label) { a.Br(OpBle, TypeU, rs1, rs2, l) }

// Bleui emits v_bleui: branch if less than or equal, comparing rs and imm.
func (a *Asm) Bleui(rs Reg, imm int64, l Label) { a.BrI(OpBle, TypeU, rs, imm, l) }

// Blel emits v_blel: branch if less than or equal, comparing rs1 and rs2.
func (a *Asm) Blel(rs1, rs2 Reg, l Label) { a.Br(OpBle, TypeL, rs1, rs2, l) }

// Bleli emits v_bleli: branch if less than or equal, comparing rs and imm.
func (a *Asm) Bleli(rs Reg, imm int64, l Label) { a.BrI(OpBle, TypeL, rs, imm, l) }

// Bleul emits v_bleul: branch if less than or equal, comparing rs1 and rs2.
func (a *Asm) Bleul(rs1, rs2 Reg, l Label) { a.Br(OpBle, TypeUL, rs1, rs2, l) }

// Bleuli emits v_bleuli: branch if less than or equal, comparing rs and imm.
func (a *Asm) Bleuli(rs Reg, imm int64, l Label) { a.BrI(OpBle, TypeUL, rs, imm, l) }

// Blep emits v_blep: branch if less than or equal, comparing rs1 and rs2.
func (a *Asm) Blep(rs1, rs2 Reg, l Label) { a.Br(OpBle, TypeP, rs1, rs2, l) }

// Blepi emits v_blepi: branch if less than or equal, comparing rs and imm.
func (a *Asm) Blepi(rs Reg, imm int64, l Label) { a.BrI(OpBle, TypeP, rs, imm, l) }

// Blef emits v_blef: branch if less than or equal, comparing rs1 and rs2.
func (a *Asm) Blef(rs1, rs2 Reg, l Label) { a.Br(OpBle, TypeF, rs1, rs2, l) }

// Bled emits v_bled: branch if less than or equal, comparing rs1 and rs2.
func (a *Asm) Bled(rs1, rs2 Reg, l Label) { a.Br(OpBle, TypeD, rs1, rs2, l) }

// Bgti emits v_bgti: branch if greater than, comparing rs1 and rs2.
func (a *Asm) Bgti(rs1, rs2 Reg, l Label) { a.Br(OpBgt, TypeI, rs1, rs2, l) }

// Bgtii emits v_bgtii: branch if greater than, comparing rs and imm.
func (a *Asm) Bgtii(rs Reg, imm int64, l Label) { a.BrI(OpBgt, TypeI, rs, imm, l) }

// Bgtu emits v_bgtu: branch if greater than, comparing rs1 and rs2.
func (a *Asm) Bgtu(rs1, rs2 Reg, l Label) { a.Br(OpBgt, TypeU, rs1, rs2, l) }

// Bgtui emits v_bgtui: branch if greater than, comparing rs and imm.
func (a *Asm) Bgtui(rs Reg, imm int64, l Label) { a.BrI(OpBgt, TypeU, rs, imm, l) }

// Bgtl emits v_bgtl: branch if greater than, comparing rs1 and rs2.
func (a *Asm) Bgtl(rs1, rs2 Reg, l Label) { a.Br(OpBgt, TypeL, rs1, rs2, l) }

// Bgtli emits v_bgtli: branch if greater than, comparing rs and imm.
func (a *Asm) Bgtli(rs Reg, imm int64, l Label) { a.BrI(OpBgt, TypeL, rs, imm, l) }

// Bgtul emits v_bgtul: branch if greater than, comparing rs1 and rs2.
func (a *Asm) Bgtul(rs1, rs2 Reg, l Label) { a.Br(OpBgt, TypeUL, rs1, rs2, l) }

// Bgtuli emits v_bgtuli: branch if greater than, comparing rs and imm.
func (a *Asm) Bgtuli(rs Reg, imm int64, l Label) { a.BrI(OpBgt, TypeUL, rs, imm, l) }

// Bgtp emits v_bgtp: branch if greater than, comparing rs1 and rs2.
func (a *Asm) Bgtp(rs1, rs2 Reg, l Label) { a.Br(OpBgt, TypeP, rs1, rs2, l) }

// Bgtpi emits v_bgtpi: branch if greater than, comparing rs and imm.
func (a *Asm) Bgtpi(rs Reg, imm int64, l Label) { a.BrI(OpBgt, TypeP, rs, imm, l) }

// Bgtf emits v_bgtf: branch if greater than, comparing rs1 and rs2.
func (a *Asm) Bgtf(rs1, rs2 Reg, l Label) { a.Br(OpBgt, TypeF, rs1, rs2, l) }

// Bgtd emits v_bgtd: branch if greater than, comparing rs1 and rs2.
func (a *Asm) Bgtd(rs1, rs2 Reg, l Label) { a.Br(OpBgt, TypeD, rs1, rs2, l) }

// Bgei emits v_bgei: branch if greater than or equal, comparing rs1 and rs2.
func (a *Asm) Bgei(rs1, rs2 Reg, l Label) { a.Br(OpBge, TypeI, rs1, rs2, l) }

// Bgeii emits v_bgeii: branch if greater than or equal, comparing rs and imm.
func (a *Asm) Bgeii(rs Reg, imm int64, l Label) { a.BrI(OpBge, TypeI, rs, imm, l) }

// Bgeu emits v_bgeu: branch if greater than or equal, comparing rs1 and rs2.
func (a *Asm) Bgeu(rs1, rs2 Reg, l Label) { a.Br(OpBge, TypeU, rs1, rs2, l) }

// Bgeui emits v_bgeui: branch if greater than or equal, comparing rs and imm.
func (a *Asm) Bgeui(rs Reg, imm int64, l Label) { a.BrI(OpBge, TypeU, rs, imm, l) }

// Bgel emits v_bgel: branch if greater than or equal, comparing rs1 and rs2.
func (a *Asm) Bgel(rs1, rs2 Reg, l Label) { a.Br(OpBge, TypeL, rs1, rs2, l) }

// Bgeli emits v_bgeli: branch if greater than or equal, comparing rs and imm.
func (a *Asm) Bgeli(rs Reg, imm int64, l Label) { a.BrI(OpBge, TypeL, rs, imm, l) }

// Bgeul emits v_bgeul: branch if greater than or equal, comparing rs1 and rs2.
func (a *Asm) Bgeul(rs1, rs2 Reg, l Label) { a.Br(OpBge, TypeUL, rs1, rs2, l) }

// Bgeuli emits v_bgeuli: branch if greater than or equal, comparing rs and imm.
func (a *Asm) Bgeuli(rs Reg, imm int64, l Label) { a.BrI(OpBge, TypeUL, rs, imm, l) }

// Bgep emits v_bgep: branch if greater than or equal, comparing rs1 and rs2.
func (a *Asm) Bgep(rs1, rs2 Reg, l Label) { a.Br(OpBge, TypeP, rs1, rs2, l) }

// Bgepi emits v_bgepi: branch if greater than or equal, comparing rs and imm.
func (a *Asm) Bgepi(rs Reg, imm int64, l Label) { a.BrI(OpBge, TypeP, rs, imm, l) }

// Bgef emits v_bgef: branch if greater than or equal, comparing rs1 and rs2.
func (a *Asm) Bgef(rs1, rs2 Reg, l Label) { a.Br(OpBge, TypeF, rs1, rs2, l) }

// Bged emits v_bged: branch if greater than or equal, comparing rs1 and rs2.
func (a *Asm) Bged(rs1, rs2 Reg, l Label) { a.Br(OpBge, TypeD, rs1, rs2, l) }

// Beqi emits v_beqi: branch if equal, comparing rs1 and rs2.
func (a *Asm) Beqi(rs1, rs2 Reg, l Label) { a.Br(OpBeq, TypeI, rs1, rs2, l) }

// Beqii emits v_beqii: branch if equal, comparing rs and imm.
func (a *Asm) Beqii(rs Reg, imm int64, l Label) { a.BrI(OpBeq, TypeI, rs, imm, l) }

// Bequ emits v_bequ: branch if equal, comparing rs1 and rs2.
func (a *Asm) Bequ(rs1, rs2 Reg, l Label) { a.Br(OpBeq, TypeU, rs1, rs2, l) }

// Bequi emits v_bequi: branch if equal, comparing rs and imm.
func (a *Asm) Bequi(rs Reg, imm int64, l Label) { a.BrI(OpBeq, TypeU, rs, imm, l) }

// Beql emits v_beql: branch if equal, comparing rs1 and rs2.
func (a *Asm) Beql(rs1, rs2 Reg, l Label) { a.Br(OpBeq, TypeL, rs1, rs2, l) }

// Beqli emits v_beqli: branch if equal, comparing rs and imm.
func (a *Asm) Beqli(rs Reg, imm int64, l Label) { a.BrI(OpBeq, TypeL, rs, imm, l) }

// Bequl emits v_bequl: branch if equal, comparing rs1 and rs2.
func (a *Asm) Bequl(rs1, rs2 Reg, l Label) { a.Br(OpBeq, TypeUL, rs1, rs2, l) }

// Bequli emits v_bequli: branch if equal, comparing rs and imm.
func (a *Asm) Bequli(rs Reg, imm int64, l Label) { a.BrI(OpBeq, TypeUL, rs, imm, l) }

// Beqp emits v_beqp: branch if equal, comparing rs1 and rs2.
func (a *Asm) Beqp(rs1, rs2 Reg, l Label) { a.Br(OpBeq, TypeP, rs1, rs2, l) }

// Beqpi emits v_beqpi: branch if equal, comparing rs and imm.
func (a *Asm) Beqpi(rs Reg, imm int64, l Label) { a.BrI(OpBeq, TypeP, rs, imm, l) }

// Beqf emits v_beqf: branch if equal, comparing rs1 and rs2.
func (a *Asm) Beqf(rs1, rs2 Reg, l Label) { a.Br(OpBeq, TypeF, rs1, rs2, l) }

// Beqd emits v_beqd: branch if equal, comparing rs1 and rs2.
func (a *Asm) Beqd(rs1, rs2 Reg, l Label) { a.Br(OpBeq, TypeD, rs1, rs2, l) }

// Bnei emits v_bnei: branch if not equal, comparing rs1 and rs2.
func (a *Asm) Bnei(rs1, rs2 Reg, l Label) { a.Br(OpBne, TypeI, rs1, rs2, l) }

// Bneii emits v_bneii: branch if not equal, comparing rs and imm.
func (a *Asm) Bneii(rs Reg, imm int64, l Label) { a.BrI(OpBne, TypeI, rs, imm, l) }

// Bneu emits v_bneu: branch if not equal, comparing rs1 and rs2.
func (a *Asm) Bneu(rs1, rs2 Reg, l Label) { a.Br(OpBne, TypeU, rs1, rs2, l) }

// Bneui emits v_bneui: branch if not equal, comparing rs and imm.
func (a *Asm) Bneui(rs Reg, imm int64, l Label) { a.BrI(OpBne, TypeU, rs, imm, l) }

// Bnel emits v_bnel: branch if not equal, comparing rs1 and rs2.
func (a *Asm) Bnel(rs1, rs2 Reg, l Label) { a.Br(OpBne, TypeL, rs1, rs2, l) }

// Bneli emits v_bneli: branch if not equal, comparing rs and imm.
func (a *Asm) Bneli(rs Reg, imm int64, l Label) { a.BrI(OpBne, TypeL, rs, imm, l) }

// Bneul emits v_bneul: branch if not equal, comparing rs1 and rs2.
func (a *Asm) Bneul(rs1, rs2 Reg, l Label) { a.Br(OpBne, TypeUL, rs1, rs2, l) }

// Bneuli emits v_bneuli: branch if not equal, comparing rs and imm.
func (a *Asm) Bneuli(rs Reg, imm int64, l Label) { a.BrI(OpBne, TypeUL, rs, imm, l) }

// Bnep emits v_bnep: branch if not equal, comparing rs1 and rs2.
func (a *Asm) Bnep(rs1, rs2 Reg, l Label) { a.Br(OpBne, TypeP, rs1, rs2, l) }

// Bnepi emits v_bnepi: branch if not equal, comparing rs and imm.
func (a *Asm) Bnepi(rs Reg, imm int64, l Label) { a.BrI(OpBne, TypeP, rs, imm, l) }

// Bnef emits v_bnef: branch if not equal, comparing rs1 and rs2.
func (a *Asm) Bnef(rs1, rs2 Reg, l Label) { a.Br(OpBne, TypeF, rs1, rs2, l) }

// Bned emits v_bned: branch if not equal, comparing rs1 and rs2.
func (a *Asm) Bned(rs1, rs2 Reg, l Label) { a.Br(OpBne, TypeD, rs1, rs2, l) }

// Retv emits v_retv: return with no value.
func (a *Asm) Retv() { a.RetVoid() }

// Cvi2u emits v_cvi2u: rd = (TypeU)rs.
func (a *Asm) Cvi2u(rd, rs Reg) { a.Cvt(TypeI, TypeU, rd, rs) }

// Cvi2l emits v_cvi2l: rd = (TypeL)rs.
func (a *Asm) Cvi2l(rd, rs Reg) { a.Cvt(TypeI, TypeL, rd, rs) }

// Cvi2ul emits v_cvi2ul: rd = (TypeUL)rs.
func (a *Asm) Cvi2ul(rd, rs Reg) { a.Cvt(TypeI, TypeUL, rd, rs) }

// Cvi2p emits v_cvi2p: rd = (TypeP)rs.
func (a *Asm) Cvi2p(rd, rs Reg) { a.Cvt(TypeI, TypeP, rd, rs) }

// Cvi2f emits v_cvi2f: rd = (TypeF)rs.
func (a *Asm) Cvi2f(rd, rs Reg) { a.Cvt(TypeI, TypeF, rd, rs) }

// Cvi2d emits v_cvi2d: rd = (TypeD)rs.
func (a *Asm) Cvi2d(rd, rs Reg) { a.Cvt(TypeI, TypeD, rd, rs) }

// Cvu2i emits v_cvu2i: rd = (TypeI)rs.
func (a *Asm) Cvu2i(rd, rs Reg) { a.Cvt(TypeU, TypeI, rd, rs) }

// Cvu2l emits v_cvu2l: rd = (TypeL)rs.
func (a *Asm) Cvu2l(rd, rs Reg) { a.Cvt(TypeU, TypeL, rd, rs) }

// Cvu2ul emits v_cvu2ul: rd = (TypeUL)rs.
func (a *Asm) Cvu2ul(rd, rs Reg) { a.Cvt(TypeU, TypeUL, rd, rs) }

// Cvu2p emits v_cvu2p: rd = (TypeP)rs.
func (a *Asm) Cvu2p(rd, rs Reg) { a.Cvt(TypeU, TypeP, rd, rs) }

// Cvu2f emits v_cvu2f: rd = (TypeF)rs.
func (a *Asm) Cvu2f(rd, rs Reg) { a.Cvt(TypeU, TypeF, rd, rs) }

// Cvu2d emits v_cvu2d: rd = (TypeD)rs.
func (a *Asm) Cvu2d(rd, rs Reg) { a.Cvt(TypeU, TypeD, rd, rs) }

// Cvl2i emits v_cvl2i: rd = (TypeI)rs.
func (a *Asm) Cvl2i(rd, rs Reg) { a.Cvt(TypeL, TypeI, rd, rs) }

// Cvl2u emits v_cvl2u: rd = (TypeU)rs.
func (a *Asm) Cvl2u(rd, rs Reg) { a.Cvt(TypeL, TypeU, rd, rs) }

// Cvl2ul emits v_cvl2ul: rd = (TypeUL)rs.
func (a *Asm) Cvl2ul(rd, rs Reg) { a.Cvt(TypeL, TypeUL, rd, rs) }

// Cvl2p emits v_cvl2p: rd = (TypeP)rs.
func (a *Asm) Cvl2p(rd, rs Reg) { a.Cvt(TypeL, TypeP, rd, rs) }

// Cvl2f emits v_cvl2f: rd = (TypeF)rs.
func (a *Asm) Cvl2f(rd, rs Reg) { a.Cvt(TypeL, TypeF, rd, rs) }

// Cvl2d emits v_cvl2d: rd = (TypeD)rs.
func (a *Asm) Cvl2d(rd, rs Reg) { a.Cvt(TypeL, TypeD, rd, rs) }

// Cvul2i emits v_cvul2i: rd = (TypeI)rs.
func (a *Asm) Cvul2i(rd, rs Reg) { a.Cvt(TypeUL, TypeI, rd, rs) }

// Cvul2u emits v_cvul2u: rd = (TypeU)rs.
func (a *Asm) Cvul2u(rd, rs Reg) { a.Cvt(TypeUL, TypeU, rd, rs) }

// Cvul2l emits v_cvul2l: rd = (TypeL)rs.
func (a *Asm) Cvul2l(rd, rs Reg) { a.Cvt(TypeUL, TypeL, rd, rs) }

// Cvul2p emits v_cvul2p: rd = (TypeP)rs.
func (a *Asm) Cvul2p(rd, rs Reg) { a.Cvt(TypeUL, TypeP, rd, rs) }

// Cvul2f emits v_cvul2f: rd = (TypeF)rs.
func (a *Asm) Cvul2f(rd, rs Reg) { a.Cvt(TypeUL, TypeF, rd, rs) }

// Cvul2d emits v_cvul2d: rd = (TypeD)rs.
func (a *Asm) Cvul2d(rd, rs Reg) { a.Cvt(TypeUL, TypeD, rd, rs) }

// Cvp2i emits v_cvp2i: rd = (TypeI)rs.
func (a *Asm) Cvp2i(rd, rs Reg) { a.Cvt(TypeP, TypeI, rd, rs) }

// Cvp2u emits v_cvp2u: rd = (TypeU)rs.
func (a *Asm) Cvp2u(rd, rs Reg) { a.Cvt(TypeP, TypeU, rd, rs) }

// Cvp2l emits v_cvp2l: rd = (TypeL)rs.
func (a *Asm) Cvp2l(rd, rs Reg) { a.Cvt(TypeP, TypeL, rd, rs) }

// Cvp2ul emits v_cvp2ul: rd = (TypeUL)rs.
func (a *Asm) Cvp2ul(rd, rs Reg) { a.Cvt(TypeP, TypeUL, rd, rs) }

// Cvp2f emits v_cvp2f: rd = (TypeF)rs.
func (a *Asm) Cvp2f(rd, rs Reg) { a.Cvt(TypeP, TypeF, rd, rs) }

// Cvp2d emits v_cvp2d: rd = (TypeD)rs.
func (a *Asm) Cvp2d(rd, rs Reg) { a.Cvt(TypeP, TypeD, rd, rs) }

// Cvf2i emits v_cvf2i: rd = (TypeI)rs.
func (a *Asm) Cvf2i(rd, rs Reg) { a.Cvt(TypeF, TypeI, rd, rs) }

// Cvf2l emits v_cvf2l: rd = (TypeL)rs.
func (a *Asm) Cvf2l(rd, rs Reg) { a.Cvt(TypeF, TypeL, rd, rs) }

// Cvf2d emits v_cvf2d: rd = (TypeD)rs.
func (a *Asm) Cvf2d(rd, rs Reg) { a.Cvt(TypeF, TypeD, rd, rs) }

// Cvd2i emits v_cvd2i: rd = (TypeI)rs.
func (a *Asm) Cvd2i(rd, rs Reg) { a.Cvt(TypeD, TypeI, rd, rs) }

// Cvd2l emits v_cvd2l: rd = (TypeL)rs.
func (a *Asm) Cvd2l(rd, rs Reg) { a.Cvt(TypeD, TypeL, rd, rs) }

// Cvd2f emits v_cvd2f: rd = (TypeF)rs.
func (a *Asm) Cvd2f(rd, rs Reg) { a.Cvt(TypeD, TypeF, rd, rs) }
