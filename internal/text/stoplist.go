package text

// The paper removes stop words with "a stop-word list from Fox [8]"
// (C. Fox, "Lexical Analysis and Stoplists", 1992). The original 421-word
// list is not redistributable here, so we embed an equivalent general-English
// function-word list of comparable size and coverage. Substituting one
// standard English stoplist for another only changes which closed-class,
// very-high-frequency words are excluded; the open-class word frequency
// profile the experiments depend on is unaffected (see DESIGN.md §2).

var stopWords = [...]string{
	"about", "above", "across", "after", "afterwards", "again", "against",
	"all", "almost", "alone", "along", "already", "also", "although",
	"always", "am", "among", "amongst", "an", "and", "another", "any",
	"anybody", "anyhow", "anyone", "anything", "anyway", "anywhere", "are",
	"area", "areas", "around", "as", "ask", "asked", "asking", "asks", "at",
	"away", "back", "backed", "backing", "backs", "be", "became", "because",
	"become", "becomes", "been", "before", "beforehand", "began", "behind",
	"being", "beings", "below", "beside", "besides", "best", "better",
	"between", "beyond", "big", "both", "but", "by", "came", "can", "cannot",
	"case", "cases", "certain", "certainly", "clear", "clearly", "come",
	"could", "did", "differ", "different", "differently", "do", "does",
	"done", "down", "downed", "downing", "downs", "during", "each", "early",
	"either", "else", "elsewhere", "end", "ended", "ending", "ends",
	"enough", "even", "evenly", "ever", "every", "everybody", "everyone",
	"everything", "everywhere", "except", "face", "faces", "fact", "facts",
	"far", "felt", "few", "find", "finds", "first", "for", "former",
	"formerly", "forth", "four", "from", "full", "fully", "further",
	"furthered", "furthering", "furthers", "gave", "general", "generally",
	"get", "gets", "give", "given", "gives", "go", "going", "good", "goods",
	"got", "great", "greater", "greatest", "group", "grouped", "grouping",
	"groups", "had", "has", "have", "having", "he", "hence", "her", "here",
	"hereafter", "hereby", "herein", "hereupon", "hers", "herself", "high",
	"higher", "highest", "him", "himself", "his", "how", "however", "if",
	"important", "in", "indeed", "interest", "interested", "interesting",
	"interests", "into", "is", "it", "its", "itself", "just", "keep",
	"keeps", "kind", "knew", "know", "known", "knows", "large", "largely",
	"last", "later", "latest", "latter", "latterly", "least", "less", "let",
	"lets", "like", "likely", "long", "longer", "longest", "made", "make",
	"making", "man", "many", "may", "me", "meanwhile", "member", "members",
	"men", "might", "more", "moreover", "most", "mostly", "mr", "mrs",
	"much", "must", "my", "myself", "namely", "necessary", "need", "needed",
	"needing", "needs", "neither", "never", "nevertheless", "new", "newer",
	"newest", "next", "no", "nobody", "non", "none", "nonetheless", "noone",
	"nor", "not", "nothing", "now", "nowhere", "number", "numbers", "of",
	"off", "often", "old", "older", "oldest", "on", "once", "one", "only",
	"onto", "open", "opened", "opening", "opens", "or", "order", "ordered",
	"ordering", "orders", "other", "others", "otherwise", "our", "ours",
	"ourselves", "out", "over", "own", "part", "parted", "parting", "parts",
	"per", "perhaps", "place", "places", "point", "pointed", "pointing",
	"points", "possible", "present", "presented", "presenting", "presents",
	"problem", "problems", "put", "puts", "quite", "rather", "really",
	"right", "room", "rooms", "said", "same", "saw", "say", "says", "second",
	"seconds", "see", "seem", "seemed", "seeming", "seems", "sees",
	"several", "shall", "she", "should", "show", "showed", "showing",
	"shows", "side", "sides", "since", "small", "smaller", "smallest", "so",
	"some", "somebody", "somehow", "someone", "something", "sometime",
	"sometimes", "somewhere", "state", "states", "still", "such", "sure",
	"take", "taken", "than", "that", "the", "their", "theirs", "them",
	"themselves", "then", "thence", "there", "thereafter", "thereby",
	"therefore", "therein", "thereupon", "these", "they", "thing", "things",
	"think", "thinks", "this", "those", "though", "thought", "thoughts",
	"three", "through", "throughout", "thus", "to", "today", "together",
	"too", "took", "toward", "towards", "turn", "turned", "turning", "turns",
	"two", "under", "until", "up", "upon", "us", "use", "used", "uses",
	"very", "via", "want", "wanted", "wanting", "wants", "was", "way",
	"ways", "we", "well", "wells", "went", "were", "what", "whatever",
	"when", "whence", "whenever", "where", "whereafter", "whereas",
	"whereby", "wherein", "whereupon", "wherever", "whether", "which",
	"while", "whither", "who", "whoever", "whole", "whom", "whose", "why",
	"will", "with", "within", "without", "work", "worked", "working",
	"works", "would", "year", "years", "yet", "you", "young", "younger",
	"youngest", "your", "yours", "yourself", "yourselves",
}

var stopSet = func() map[string]struct{} {
	m := make(map[string]struct{}, len(stopWords))
	for _, w := range stopWords {
		m[w] = struct{}{}
	}
	return m
}()

// IsStopWord reports whether the (already lowercased) word is on the
// embedded stoplist.
func IsStopWord(w string) bool {
	_, ok := stopSet[w]
	return ok
}
