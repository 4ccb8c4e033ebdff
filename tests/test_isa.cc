/**
 * @file
 * Unit tests for the ISA: instruction attributes, the disassembler,
 * and program verification.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "isa/program.hh"
#include "isa/registers.hh"
#include "support/logging.hh"

using namespace elag;
using namespace elag::isa;

TEST(Instruction, LoadAttributes)
{
    Instruction ld = build::load(LoadSpec::Predict, 4, 17, 0);
    EXPECT_TRUE(ld.isLoad());
    EXPECT_TRUE(ld.isMem());
    EXPECT_FALSE(ld.isStore());
    EXPECT_EQ(ld.fuClass(), FuClass::MemPort);
    EXPECT_EQ(ld.intDest(), 4);
    EXPECT_EQ(ld.baseReg(), 17);
    EXPECT_EQ(ld.indexReg(), -1);

    Instruction ldx = build::loadx(LoadSpec::Normal, 6, 19, 5);
    EXPECT_EQ(ldx.baseReg(), 19);
    EXPECT_EQ(ldx.indexReg(), 5);
}

TEST(Instruction, SourcesExcludeRegisterZero)
{
    Instruction add = build::add(3, 0, 7);
    int s1, s2;
    add.intSources(s1, s2);
    EXPECT_EQ(s1, -1); // r0 is not a dependence
    EXPECT_EQ(s2, 7);
}

TEST(Instruction, WritesToR0AreDiscardedAsDest)
{
    Instruction add = build::add(0, 1, 2);
    EXPECT_EQ(add.intDest(), -1);
    EXPECT_FALSE(add.writesIntReg());
}

TEST(Instruction, ControlClassification)
{
    EXPECT_TRUE(build::branch(Opcode::BEQ, 1, 2, 5).isCondBranch());
    EXPECT_TRUE(build::jmp(3).isControl());
    EXPECT_FALSE(build::jmp(3).isCondBranch());
    EXPECT_TRUE(build::jal(2, 7).isControl());
    EXPECT_TRUE(build::jr(2).isControl());
    EXPECT_EQ(build::jmp(1).fuClass(), FuClass::Branch);
}

TEST(Instruction, StoreReadsDataAndBase)
{
    Instruction st = build::store(9, 8, 12);
    int s1, s2;
    st.intSources(s1, s2);
    EXPECT_EQ(s1, 8);
    EXPECT_EQ(s2, 9);
    EXPECT_FALSE(st.writesIntReg());
}

TEST(Disasm, LoadSpecifiersAppearInMnemonics)
{
    EXPECT_EQ(disassemble(build::load(LoadSpec::Normal, 4, 17, 0)),
              "ld_n r4, 0(r17)");
    EXPECT_EQ(disassemble(build::load(LoadSpec::Predict, 4, 17, 0)),
              "ld_p r4, 0(r17)");
    EXPECT_EQ(disassemble(build::load(LoadSpec::EarlyCalc, 13, 12, 8)),
              "ld_e r13, 8(r12)");
}

TEST(Disasm, ByteWidthSuffix)
{
    EXPECT_EQ(disassemble(build::load(LoadSpec::Normal, 4, 17, 1,
                                      MemWidth::Byte)),
              "ld_nb r4, 1(r17)");
    EXPECT_EQ(disassemble(build::store(5, 6, 2, MemWidth::Byte)),
              "stb r5, 2(r6)");
}

TEST(Disasm, RegisterConventionNames)
{
    EXPECT_EQ(intRegName(reg::Zero), "zero");
    EXPECT_EQ(intRegName(reg::Sp), "sp");
    EXPECT_EQ(intRegName(reg::Ra), "ra");
    EXPECT_EQ(intRegName(reg::Gp), "gp");
    EXPECT_EQ(intRegName(40), "r40");
}

TEST(Disasm, ProgramListingHasSymbols)
{
    MachineProgram prog;
    prog.code.push_back(build::li(4, 1));
    prog.code.push_back(build::halt());
    prog.symbols["main"] = 0;
    std::string text = disassemble(prog);
    EXPECT_NE(text.find("main:"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(Program, VerifyAcceptsValidProgram)
{
    MachineProgram prog;
    prog.code.push_back(build::branch(Opcode::BEQ, 1, 2, 1));
    prog.code.push_back(build::halt());
    EXPECT_NO_THROW(prog.verify());
}

TEST(Program, VerifyRejectsOutOfRangeBranch)
{
    MachineProgram prog;
    prog.code.push_back(build::jmp(99));
    EXPECT_THROW(prog.verify(), PanicError);
}

TEST(Program, HeapBaseFollowsGlobals)
{
    MachineProgram prog;
    prog.globalSize = 100;
    EXPECT_GE(prog.heapBase(), GlobalBase + 100);
    EXPECT_EQ(prog.heapBase() % 8, 0u);
}
