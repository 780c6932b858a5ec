package repro.core

import java.util.regex.Pattern

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class TokenizerSpec extends AnyFunSuite {
  private val tok = Tokenizer.default

  private def randomStrings(n: Int): Seq[String] = {
    val rng = new scala.util.Random(42)
    val chars = "abcXYZ019 ;=()[]{}<>:.,\"'\\\n\t/-_"
    Seq.fill(n)(Seq.fill(rng.nextInt(40))(chars(rng.nextInt(chars.length))).mkString)
  }

  test("splits on whitespace") {
    assert(tok.tokenize("a b  c").toSeq == Seq("a", "b", "c"))
  }

  test("splits on common delimiters from the paper's regex") {
    assert(tok.tokenize("k=v;x,y(z)[w]{u}").toSeq == Seq("k", "v", "x", "y", "z", "w", "u"))
  }

  test("splits on quotes and angle brackets") {
    assert(tok.tokenize("""say "hi" <tag>""").toSeq == Seq("say", "hi", "tag"))
  }

  test("URL protocol separator is a delimiter") {
    assert(tok.tokenize("http://example.com/x").toSeq == Seq("http", "example.com/x"))
  }

  test("colon is a delimiter") {
    assert(tok.tokenize("time:12").toSeq == Seq("time", "12"))
  }

  test("period inside a number survives") {
    assert(tok.tokenize("pi is 3.14 ok").toSeq == Seq("pi", "is", "3.14", "ok"))
  }

  test("sentence-ending period is stripped") {
    assert(tok.tokenize("done. next").toSeq == Seq("done", "next"))
  }

  test("trailing period at end of record is stripped") {
    assert(tok.tokenize("all done.").toSeq == Seq("all", "done"))
  }

  test("escaped quotes are delimiters") {
    assert(tok.tokenize("""a \"quoted\" b""").toSeq == Seq("a", "quoted", "b"))
  }

  test("period inside a domain name survives (no whitespace after)") {
    assert(tok.tokenize("host example.com up").toSeq == Seq("host", "example.com", "up"))
  }

  test("slashes and dashes are not delimiters") {
    assert(tok.tokenize("/var/log/app-1.log ok").toSeq == Seq("/var/log/app-1.log", "ok"))
  }

  test("empty string yields no tokens") {
    assert(tok.tokenize("").isEmpty)
  }

  test("whitespace-only string yields no tokens") {
    assert(tok.tokenize(" \t\n ").isEmpty)
  }

  test("consecutive delimiters collapse (no empty tokens)") {
    assert(tok.tokenize("a;;;=b").toSeq == Seq("a", "b"))
  }

  test("user-defined tokenizer regex is honoured") {
    val custom = new Tokenizer("""[|]+""")
    assert(custom.tokenize("a|b c|d").toSeq == Seq("a", "b c", "d"))
  }

  test("look-ahead is rejected in user tokenizers") {
    assertThrows[IllegalArgumentException](new Tokenizer("""a(?=b)"""))
  }

  test("look-behind is rejected in user tokenizers") {
    assertThrows[IllegalArgumentException](new Tokenizer("""(?<=a)b"""))
  }

  test("negative look-around is rejected in user tokenizers") {
    assertThrows[IllegalArgumentException](new Tokenizer("""a(?!b)"""))
    assertThrows[IllegalArgumentException](new Tokenizer("""(?<!a)b"""))
  }

  test("backreferences are rejected in user tokenizers") {
    assert(Tokenizer.hasForbiddenConstruct("""(a)\1"""))
    assert(Tokenizer.hasForbiddenConstruct("""(?<x>a)\k<x>"""))
    assert(Tokenizer.hasForbiddenConstruct("""\\\1"""))
    // an escaped backslash before a digit is a literal, not a backreference
    assert(!Tokenizer.hasForbiddenConstruct("""C:\\1"""))
    assert(!Tokenizer.hasForbiddenConstruct("""[\d,]+\(x\)"""))
  }

  test("tokenization is deterministic over random inputs") {
    randomStrings(300).foreach { s =>
      assert(tok.tokenize(s).toSeq == tok.tokenize(s).toSeq)
    }
  }

  test("no token contains a plain-space delimiter or is empty, over random inputs") {
    randomStrings(300).foreach { s =>
      assert(tok.tokenize(s).forall(t => !t.contains(' ') && t.nonEmpty))
    }
  }

  /** What the default tokenizer must equal: the §4.1.1 regex run by `Pattern.split`. */
  private val reference = Pattern.compile(Tokenizer.DefaultDelimiters)
  private def split(s: String): Seq[String] = reference.split(s).filter(_.nonEmpty).toSeq

  test("the default tokenizer equals Pattern.split on random strings (ScalaCheck)") {
    // every char the regex treats specially, every \s char, the line
    // terminators `$` looks past, and non-ASCII letters and digits
    val pieces = Gen.oneOf(
      ":", "/", ".", "\\", "\"", "'", "://", ":/", "\\\"", "\\'",
      " ", "\t", "\n", "\u000B", "\f", "\r", "\r\n", "\u0085", "\u2028", "\u2029", "\u00A0",
      ";", "=", "(", ")", "[", "]", "{", "}", "?", "@", "&", "<", ">", ",", "-", "_",
      "a", "Z", "7", "0", "é", "ß", "Ж", "中", "\u0663", "\uD835\uDFD9", "x1", "<*>")
    val strings = Gen.choose(0, 24).flatMap(Gen.listOfN(_, pieces)).map(_.mkString)
    val prop = Prop.forAll(strings) { s =>
      val got = tok.tokenize(s).toSeq
      (got == split(s)) :| s"${s.map(_.toInt.toHexString)}: $got vs ${split(s)}"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(5000).withInitialSeed(Seed(7L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  test("inside a delimiter run a colon ends the run, so :// is not taken there") {
    assert(tok.tokenize("a ://x").toSeq == Seq("a", "//x"))
    assert(split("a ://x") == Seq("a", "//x"))
    assert(tok.tokenize("a://x").toSeq == Seq("a", "x"))
  }

  test("a period before a final line terminator ends a sentence; the terminator stays a token") {
    assert(tok.tokenize("end.\u2028").toSeq == Seq("end", "\u2028"))
    assert(split("end.\u2028") == Seq("end", "\u2028"))
    assert(tok.tokenize("x.\r\n").toSeq == Seq("x"))
    assert(tok.tokenize("v1.2.\u0085 tail").toSeq == Seq("v1.2.\u0085", "tail"))
  }

  test("backslash-quote is one two-char delimiter; a lone backslash is not") {
    assert(tok.tokenize("""a\'b\c""").toSeq == Seq("a", """b\c"""))
  }

  test("\\s is ASCII only: non-breaking and ideographic spaces stay inside tokens") {
    assert(tok.tokenize("a\u00A0b c\u3000d").toSeq == Seq("a\u00A0b", "c\u3000d"))
    assert(tok.tokenize("a\u000Bb").toSeq == Seq("a", "b"))
  }
}
